// ROP prediction table (paper §IV-C, Fig. 6).
//
// A variation of the Variable Length Delta Prefetcher adapted to rank scope:
// one table per rank, one entry per bank. Each entry remembers the last
// accessed cache-line offset within the bank and three delta patterns —
// a single delta, a two-delta tuple and a three-delta tuple — each with a
// repetition frequency:
//
//   | BankID | LastAddr | Delta1 | f1 | Delta2 | f2 | Delta3 | f3 |
//
// On every access the new delta is compared against Delta1 (f1 increments on
// a match, otherwise Delta1 is replaced and f1 reset); every two accesses
// form a two-delta tuple compared against Delta2; every three accesses form
// a three-delta tuple compared against Delta3. When any frequency would
// overflow, all three are halved.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"

namespace rop::engine {

/// Signed line-offset delta between consecutive accesses in a bank.
using Delta = std::int64_t;

struct TableEntry {
  std::optional<std::uint64_t> last_addr;  // line offset within the bank
  Cycle last_access = kNeverCycle;         // when this bank was last touched

  Delta delta1 = 0;
  std::uint16_t f1 = 0;
  bool delta1_valid = false;

  std::array<Delta, 2> delta2{};
  std::uint16_t f2 = 0;
  bool delta2_valid = false;

  std::array<Delta, 3> delta3{};
  std::uint16_t f3 = 0;
  bool delta3_valid = false;

  /// Recent delta history used to form the 2- and 3-tuples.
  std::array<Delta, 3> recent{};
  std::uint8_t deltas_seen = 0;  // mod-6 counter for tuple boundaries

  [[nodiscard]] std::uint32_t weight() const {
    return static_cast<std::uint32_t>(f1) + f2 + f3;
  }

  /// Snapshot serialization (see common/snapshot_io.h).
  template <class Ar>
  void io(Ar& ar) {
    ar(last_addr, last_access, delta1, f1, delta1_valid, delta2, f2,
       delta2_valid, delta3, f3, delta3_valid, recent, deltas_seen);
  }
};

/// Per-bank prefetch budget and the generated candidate offsets.
struct BankPrediction {
  BankId bank = 0;
  std::uint32_t budget = 0;
  std::vector<std::uint64_t> offsets;  // line offsets within the bank
};

class PredictionTable {
 public:
  /// `num_banks` entries; `lines_per_bank` bounds generated offsets (they
  /// wrap modulo the bank size).
  PredictionTable(std::uint32_t num_banks, std::uint64_t lines_per_bank);

  /// Record an access to `bank` at line `offset` within the bank.
  void on_access(BankId bank, std::uint64_t offset, Cycle now = 0);

  [[nodiscard]] const TableEntry& entry(BankId bank) const {
    return entries_.at(bank);
  }
  [[nodiscard]] std::uint32_t num_banks() const {
    return static_cast<std::uint32_t>(entries_.size());
  }

  /// Total pattern weight across banks (denominator of Eq. 3).
  [[nodiscard]] std::uint64_t total_weight() const;

  /// Split a buffer of `capacity` lines across banks proportionally to
  /// pattern weight (Eq. 3) and generate candidate offsets per bank by
  /// walking each delta pattern from LastAddr, proportionally to its
  /// frequency. `uniform` replaces Eq. 3 with an even split (ablation).
  /// When `recency_horizon` is non-zero, banks whose last access is older
  /// than `now - recency_horizon` get zero budget: a bank idle for longer
  /// than a staging+refresh freeze cannot receive requests during one, so
  /// spending buffer lines there only dilutes the hot banks.
  [[nodiscard]] std::vector<BankPrediction> predict(
      std::uint32_t capacity, bool uniform = false, Cycle now = 0,
      Cycle recency_horizon = 0) const;

  /// Halve every frequency (called once per refresh of the owning rank):
  /// Eq. 3's budget split then tracks the banks hot in the *recent*
  /// observational window instead of the whole history.
  void decay();

  void clear();

  /// The predicted next bank assuming the most recent inter-bank
  /// transition stride repeats (how a strided stream walks banks under
  /// page interleaving).
  [[nodiscard]] std::optional<BankId> predicted_next_bank() const;

  /// Snapshot serialization: entries plus the inter-bank stride tracker.
  template <class Ar>
  void io(Ar& ar) {
    ar(entries_, last_bank_, transition_stride_);
  }

 private:
  void generate_offsets(const TableEntry& e, std::uint32_t budget,
                        std::vector<std::uint64_t>& out) const;

  std::vector<TableEntry> entries_;
  std::uint64_t lines_per_bank_;
  std::optional<BankId> last_bank_;
  std::optional<std::uint32_t> transition_stride_;  // mod num_banks
};

}  // namespace rop::engine
