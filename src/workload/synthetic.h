// Parameterised synthetic workload generator.
//
// Substitutes the paper's SPEC CPU2006 traces (see DESIGN.md §1). Traces are
// modeled at the post-L2 level: each record is an LLC access plus the
// compute gap before it. The generator controls exactly the axes ROP is
// sensitive to:
//   * intensity        — mean compute gap between LLC accesses,
//   * spatial locality — weighted strided streams with multi-delta
//                        patterns (what the VLDP-style table predicts),
//   * irregularity     — a fraction of uniform-random accesses,
//   * footprint        — reuse distance vs. LLC size (miss filtering),
//   * burstiness       — busy phases separated by long idle gaps (what
//                        makes B=0 windows and high beta),
//   * read/write mix.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "workload/geometric_gap.h"
#include "workload/trace.h"

namespace rop::workload {

/// A strided walker. `deltas` is a cyclic line-granular delta sequence —
/// {+1} is a unit stream, {+1,+1,+130} is the kind of multi-delta pattern
/// VLDP exploits.
struct StreamSpec {
  std::vector<std::int64_t> deltas;
  double weight = 1.0;
};

struct SyntheticConfig {
  std::string name = "synthetic";
  double mean_gap = 50.0;          // mean instructions between LLC accesses
  double write_fraction = 0.25;
  std::uint64_t footprint_lines = 1ull << 20;  // 64 MB default
  std::vector<StreamSpec> streams{{{+1}, 1.0}};
  double random_fraction = 0.1;    // uniform-random accesses in footprint
  /// Burstiness: after ~`burst_ops` memory operations, insert an idle gap
  /// of ~`idle_instructions` instructions. 0 idle = steady traffic.
  double burst_ops = 0.0;
  double idle_instructions = 0.0;
  std::uint64_t seed = 7;
  /// Records generated per refill of the internal ring. next() hands out
  /// prefilled records so the generation cost (RNG draws, credit updates,
  /// delta walk) amortizes over the batch. 0 or 1 disables batching. The
  /// record *stream* is identical for any batch size (the generator is
  /// self-contained, so generation order equals consumption order).
  std::uint32_t batch_records = 32;
};

class SyntheticTrace final : public TraceSource {
 public:
  explicit SyntheticTrace(const SyntheticConfig& cfg);

  TraceRecord next() override;
  void reset() override;

  [[nodiscard]] const SyntheticConfig& config() const { return cfg_; }

  /// Where the stream stands: the RNG, the walker cursors, and the record
  /// ring (with its consumption cursor). Everything else is derived from
  /// the config. Two generators of one config in equal states hand out
  /// the same records from there on.
  struct State {
    Rng rng;
    std::vector<std::uint64_t> positions;  // per-stream line cursor
    std::vector<std::size_t> delta_idx;    // per-stream cursor into deltas
    std::vector<double> credits;  // weighted round-robin selection state
    std::uint64_t ops_until_idle = 0;
    std::vector<TraceRecord> ring;  // prefilled batch; empty when disabled
    std::size_t ring_pos = 0;       // next record to hand out

    /// Grow every buffer to hold a `cfg` generator's state, so a later
    /// copy-assignment from one allocates nothing.
    void reserve(const SyntheticConfig& cfg) {
      positions.reserve(cfg.streams.size());
      delta_idx.reserve(cfg.streams.size());
      credits.reserve(cfg.streams.size());
      ring.reserve(cfg.batch_records);
    }

    template <class Ar>
    void io(Ar& ar) {
      ar(rng, positions, delta_idx, credits, ops_until_idle, ring, ring_pos);
    }
  };

  [[nodiscard]] const State& state() const { return st_; }
  /// Move the stream to `state`, taken from a generator of the same config.
  void set_state(const State& state) { st_ = state; }

  /// Build the gap table and reserve the record ring now, so that from
  /// here on next() never allocates (both are otherwise built lazily).
  void prepare();

  /// Snapshot serialization: the State, so the restored stream hands out
  /// exactly the records the captured generator would have.
  template <class Ar>
  void io(Ar& ar) {
    st_.io(ar);
  }

 private:
  /// Generate the next record (the pre-batching next()). Draws from `rng`
  /// so refill() can hand in a register-resident local copy.
  TraceRecord generate(Rng& rng);
  /// Refill the record ring with the next batch_records records.
  void refill();

  SyntheticConfig cfg_;
  State st_;
  /// The compute gap, drawn every record through a threshold table
  /// (derived from mean_gap, never serialized). Built by the first refill()
  /// or unbatched next(), not the constructor: the table costs about half
  /// of an instance's set-up (docs/PERFORMANCE.md §11).
  std::optional<GeometricGap> gap_;
  /// Precomputed log1p(-1/mean) for the idle-period and busy-phase lengths
  /// (0 when the mean is <= 1 and the denominator path is unused). They
  /// are drawn once per busy phase, so they keep the reference path.
  double idle_denom_ = 0.0;
  double burst_denom_ = 0.0;
  /// write_fraction and random_fraction as integer-threshold trials
  /// (derived from the config, never serialized).
  Bernoulli write_;
  Bernoulli random_;
  /// Per stream: each delta reduced mod footprint_lines into [0, footprint).
  std::vector<std::vector<std::uint64_t>> steps_;
  double total_weight_ = 0.0;
};

}  // namespace rop::workload
