// EpochSampler: delta time-series of StatRegistry counters.
//
// Every `epoch_cycles` controller cycles the sampler snapshots every counter
// registered at its construction and stores the per-epoch deltas in a preallocated ring —
// the raw material for the paper's time-resolved figures (blocked-request
// bursts around tRFC windows, hit-rate evolution) without any per-event
// hooks in the simulator.
//
// Exactness under the event-driven clock: the sample at epoch boundary B
// reflects all activity strictly before controller cycle B (the state the
// naive loop would observe entering tick(B)). cpu::System::run calls
// advance_to(mem_now) at every memory-clock boundary it visits *before* the
// (possibly skipped) tick; boundaries inside a frozen-cycle skip span are
// emitted lazily at the next visited boundary, which is exact because the
// event-clock contract guarantees every skipped tick is a provable no-op —
// no counter can have moved. The determinism tests pin the resulting series
// bit-identical between the naive and fast-forward loops.
//
// Hot-path cost: one branch (`now < next_boundary_`) per advance_to call
// when no boundary is due; nothing allocates after construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace rop::telemetry {

struct SamplerConfig {
  /// Sampling period in controller cycles; 0 disables the sampler.
  /// tREFI (6240 at DDR4-1600 1x) gives one sample per refresh interval.
  Cycle epoch_cycles = 0;
  /// Ring capacity in epochs; when exceeded the oldest epochs are dropped
  /// (first_epoch_index() reports how many).
  std::size_t max_epochs = 4096;
};

class EpochSampler {
 public:
  EpochSampler(const SamplerConfig& cfg, StatRegistry* stats);

  [[nodiscard]] bool enabled() const { return cfg_.epoch_cycles > 0; }
  [[nodiscard]] Cycle epoch_cycles() const { return cfg_.epoch_cycles; }

  /// Emit every pending epoch with boundary <= now. Hot path: a single
  /// compare when no boundary is due.
  void advance_to(Cycle now) {
    if (!closed_ && now >= next_boundary_) catch_up(now);
  }

  /// End of run at cycle `end`: emit pending full epochs, then a trailing
  /// partial epoch covering (last boundary, end] when it is non-empty.
  /// Idempotent; the sampler ignores advance_to after close.
  void close(Cycle end);

  /// Next epoch boundary the sampler will emit at. The event loop's
  /// channel clocks run every tick before it, then emit, so the series
  /// matches the naive loop's.
  [[nodiscard]] Cycle next_boundary() const { return next_boundary_; }

  [[nodiscard]] const std::vector<std::string>& counter_names() const {
    return names_;
  }
  /// Epochs currently retained in the ring.
  [[nodiscard]] std::size_t num_epochs() const { return rows_; }
  /// Global index of the oldest retained epoch (0 unless the ring dropped).
  [[nodiscard]] std::uint64_t first_epoch_index() const {
    return first_epoch_;
  }
  /// End cycle of retained epoch `i` (exclusive; the epoch covers
  /// [end - epoch_cycles, end), except a trailing partial epoch).
  [[nodiscard]] Cycle epoch_end(std::size_t i) const;
  /// Delta of counter `c` over retained epoch `i`.
  [[nodiscard]] std::uint64_t delta(std::size_t i, std::size_t c) const;

  /// Snapshot serialization: last-boundary values, the delta ring, and the
  /// boundary cursor. Names/handles are rebuilt at construction (the
  /// registered counter set is fixed by the spec, and the sampler is
  /// constructed before restore).
  template <class Ar>
  void io(Ar& ar) {
    ar(prev_, deltas_, ends_, rows_, first_row_, first_epoch_,
       next_boundary_, closed_);
  }

 private:
  void catch_up(Cycle now);
  void take_sample(Cycle end_cycle);

  SamplerConfig cfg_;
  std::vector<std::string> names_;
  std::vector<const Counter*> handles_;
  std::vector<std::uint64_t> prev_;  // counter values at the last boundary

  // Flat ring: row r lives at slot (first_row_ + r) % max_epochs.
  std::vector<std::uint64_t> deltas_;  // max_epochs x names_.size()
  std::vector<Cycle> ends_;
  std::size_t rows_ = 0;
  std::size_t first_row_ = 0;
  std::uint64_t first_epoch_ = 0;

  Cycle next_boundary_ = 0;
  bool closed_ = false;
  /// One stderr warning per sampler when the ring first wraps. Operational
  /// nudge only — deliberately not serialized (a restored run warns again).
  bool warned_drop_ = false;
};

}  // namespace rop::telemetry
