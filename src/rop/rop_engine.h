// The ROP engine: Training -> Observing -> Prefetching state machine
// (paper §IV-C, last paragraph), one instance per memory channel.
//
//  * Training: the Pattern Profiler correlates B/A windows around each
//    refresh; after `training_refreshes` closed windows it freezes lambda
//    and beta. The SRAM buffer is off (no leakage charged).
//  * Observing: when a refresh comes due the controller locks the rank and
//    calls on_rank_locked; the engine decides — probabilistically gated by
//    lambda (B>0) or 1-beta (B=0) — whether to prefetch, and if so stages
//    up to `buffer_lines` prefetch reads produced by the prediction tables
//    (Eq. 3 split) from their *current* state, so the candidates track the
//    live stream position.
//  * Prefetching: transient while the staged prefetches execute; the REF
//    command follows once the drain and the fills complete (bounded by the
//    controller's drain window and the JEDEC postponement budget).
//
// While a rank is locked or frozen by REF, demand reads that hit the buffer
// complete at SRAM latency instead of blocking. If the phase prefetch
// accuracy drops below `kHitRateThreshold` the engine falls back to
// Training.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "mem/controller.h"
#include "rop/pattern_profiler.h"
#include "rop/prefetcher.h"
#include "rop/sram_buffer.h"
#include "telemetry/trace_sink.h"

namespace rop::engine {

enum class RopState : std::uint8_t { kTraining, kObserving, kPrefetching };

enum class GatingMode : std::uint8_t {
  kProbabilistic,   // the paper's lambda/beta gating
  kAlwaysPrefetch,  // ablation: prefetch before every refresh
  kNeverPrefetch,   // ablation: never prefetch (isolates drain effects)
};

/// Phase prefetch accuracy below which the engine retrains (paper §V-A).
inline constexpr double kHitRateThreshold = 0.6;
/// A buffer hit completes in one controller cycle (about 3 CPU cycles).
inline constexpr Cycle kSramLatency = 1;
/// Fills a phase needs before its accuracy is judged.
inline constexpr std::uint32_t kEvalMinOpportunities = 16;

struct RopConfig {
  std::uint32_t buffer_lines = 64;        // SRAM capacity (paper default)
  std::uint32_t training_refreshes = 50;  // paper §V-A
  std::uint32_t window_multiple = 1;      // W = multiple x tREFI (paper §III-C)
  std::uint32_t eval_period_refreshes = 50;
  std::uint64_t seed = 0x20160816ULL;
  GatingMode gating = GatingMode::kProbabilistic;
  bool uniform_budget = false;  // ablation: even split instead of Eq. 3
  /// Adapt the prefetch count to the demand observed during
  /// recent freeze windows (1.5x EMA + 8 lines, at most buffer_lines)
  /// instead of always staging the full buffer (set false
  /// to follow the paper literally: Eq. 3 distributes the whole capacity).
  bool adaptive_count = true;
  /// Zero-budget banks that have been idle longer than this many cycles at
  /// staging time (they cannot receive requests during the freeze). 0
  /// disables the recency filter (ablation).
  Cycle bank_recency_horizon = 1536;
  /// Skip prefetch rounds while the data bus is effectively saturated
  /// (mean demand inter-arrival below this many burst times): staging then
  /// steals bus time 1:1 from demand and cannot win. ROP targets
  /// latency-bound phases. Set to 0 to disable the guard (ablation).
  double saturation_guard_bursts = 2.0;
};

class RopEngine final : public mem::ControllerListener {
 public:
  RopEngine(const RopConfig& cfg, mem::Controller& ctrl,
            const mem::AddressMap& map, StatRegistry* stats);

  // mem::ControllerListener
  std::optional<Cycle> on_enqueue(const mem::Request& req, Cycle now) override;
  void on_demand_serviced(const mem::Request& req, Cycle now) override;
  void on_rank_locked(RankId rank, Cycle now) override;
  void on_refresh_issued(RankId rank, Cycle start, Cycle done) override;
  void on_prefetch_filled(const mem::Request& req, Cycle now) override;
  void on_tick(Cycle now) override;
  void on_finalize(Cycle now) override;

  [[nodiscard]] RopState state() const { return state_; }
  /// The controller this engine is attached to (checker uses it to pair
  /// buffer contents with the owning channel's write queue).
  [[nodiscard]] const mem::Controller& controller() const { return ctrl_; }
  [[nodiscard]] double lambda() const { return profiler_.lambda(); }
  [[nodiscard]] double beta() const { return profiler_.beta(); }
  [[nodiscard]] const SramBuffer& buffer() const { return buffer_; }
  [[nodiscard]] const Prefetcher& prefetcher() const { return prefetcher_; }
  [[nodiscard]] const PatternProfiler& profiler() const { return profiler_; }

  /// Paper §V-B3 metric: buffer hits / demand reads arriving during
  /// refresh periods, over the whole run.
  [[nodiscard]] double overall_hit_rate() const {
    return overall_opportunities_
               ? static_cast<double>(overall_hits_) /
                     static_cast<double>(overall_opportunities_)
               : 0.0;
  }
  [[nodiscard]] std::uint64_t sram_on_cycles() const { return sram_on_cycles_; }

  /// Snapshot serialization: the full state machine — profiler, prediction
  /// tables, SRAM buffer, RNG, EMAs, and phase accounting. phase_unconsumed_
  /// is an unordered set with no canonical byte order, so it rides as a
  /// sorted vector and is rebuilt on restore.
  template <class Ar>
  void io(Ar& ar) {
    ar(profiler_, prefetcher_, buffer_, rng_, state_, last_access_,
       ema_interarrival_, ema_channel_interarrival_, last_channel_arrival_,
       ema_freeze_demand_, reads_this_freeze_, refreshes_since_eval_,
       phase_hits_, phase_opportunities_, phase_fills_, phase_consumed_,
       overall_hits_, overall_opportunities_, sram_on_cycles_, last_tick_);
    std::vector<Address> staged;
    if constexpr (!Ar::kIsReader) {
      staged.assign(phase_unconsumed_.begin(), phase_unconsumed_.end());
      std::sort(staged.begin(), staged.end());
    }
    ar(staged);
    if constexpr (Ar::kIsReader) {
      phase_unconsumed_.clear();
      phase_unconsumed_.insert(staged.begin(), staged.end());
    }
  }

 private:
  void evaluate_phase();
  [[nodiscard]] Cycle window() const { return window_; }
  /// Record an instant ROP trace event (fill/hit/serve) into the
  /// controller's sink; a detached sink costs one pointer compare.
  void trace_rop(telemetry::EventKind kind, RankId rank, Address line,
                 Cycle now);

  /// Hot-path stat handles, resolved once at construction (the registry
  /// guarantees pointer stability) — no string-keyed lookups per event.
  struct StatHandles {
    Counter* buffer_hits = nullptr;
    Counter* buffer_misses = nullptr;
    Counter* lock_window_served = nullptr;
    Counter* skipped_saturated = nullptr;
    Counter* decisions_skip = nullptr;
    Counter* decisions_prefetch = nullptr;
    Counter* rounds_empty = nullptr;
    Counter* retrain_events = nullptr;
    Counter* buffer_fills = nullptr;
    Scalar* lambda = nullptr;
    Scalar* beta = nullptr;
    Scalar* phase_accuracy = nullptr;
    Scalar* phase_hits_per_fill = nullptr;
  };

  RopConfig cfg_;
  mem::Controller& ctrl_;
  StatRegistry* stats_;
  StatHandles h_;

  Cycle window_;
  PatternProfiler profiler_;
  Prefetcher prefetcher_;
  SramBuffer buffer_;
  Rng rng_;

  RopState state_ = RopState::kTraining;
  std::vector<Cycle> last_access_;  // per-rank: last demand arrival
  /// Exponential averages driving the adaptive count and bank horizon.
  std::vector<double> ema_interarrival_;    // per-rank demand inter-arrival
  double ema_channel_interarrival_ = 1e6;   // channel-wide (bus pressure)
  Cycle last_channel_arrival_ = kNeverCycle;
  std::vector<double> ema_freeze_demand_;   // reads per freeze (lock+refresh)
  std::vector<std::uint32_t> reads_this_freeze_;
  std::uint32_t refreshes_since_eval_ = 0;

  std::uint64_t phase_hits_ = 0;
  std::uint64_t phase_opportunities_ = 0;
  std::uint64_t phase_fills_ = 0;
  /// Fills served at least once since they landed. The accuracy metric
  /// divides this (not raw hits) by fills: repeat services of one staged
  /// line — or a line retained across rounds without a refill — must not
  /// push "accuracy" past 1.0, so each fill is consumable exactly once.
  std::uint64_t phase_consumed_ = 0;
  std::unordered_set<Address> phase_unconsumed_;  // staged, not yet served
  std::uint64_t overall_hits_ = 0;
  std::uint64_t overall_opportunities_ = 0;
  std::uint64_t sram_on_cycles_ = 0;
  Cycle last_tick_ = 0;
};

}  // namespace rop::engine
