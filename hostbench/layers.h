// The traced run: per-layer host time measured from outside src/, at the
// simulator's public boundaries.
//
//  * cpu      — spans around System::advance_until chunks.
//  * rop      — TimedListener, a forwarding ControllerListener decorator
//               installed in front of each RopEngine (SimInstanceHooks
//               post_engines + Controller::set_listener); counts and times
//               every hook call.
//  * mem      — CountingAuditor, a ControllerAuditor that counts executed
//               ticks and retired reads; with a TimedListener on the same
//               channel it also times the scheduler/refresh part of each
//               tick (the listener's on_tick return to on_tick_end).
//  * snapshot — save_snapshot_buffer / load_snapshot_buffer on the warm
//               instance.
//  * sampling — a serial re-enactment of the planner's public calls.
//  * workload / cache — SyntheticTrace::next and Llc::access replayed alone.
//
// dram and energy run inside Controller::tick and finalize and cannot be
// split from outside: their time lands in cpu self time (the part of a tick
// before on_tick) or in the unaccounted share. Separating them needs
// profiling inside the program.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_core.h"
#include "mem/controller.h"
#include "sim/experiment.h"
#include "sim/sim_instance.h"

namespace hostbench {

enum class Hook : std::uint8_t {
  kOnTick,
  kOnEnqueue,
  kOnDemandServiced,
  kOnRankLocked,
  kOnRefreshIssued,
  kOnPrefetchFilled,
};
inline constexpr std::size_t kHookCount = 6;
[[nodiscard]] const char* hook_name(Hook h);

/// Forwarding decorator: every hook is counted, timed (outermost call only,
/// so a re-entrant hook is not counted twice in the time), and forwarded
/// with its arguments and return value unchanged.
class TimedListener final : public rop::mem::ControllerListener {
 public:
  explicit TimedListener(rop::mem::ControllerListener& inner)
      : inner_(inner) {}

  std::optional<rop::Cycle> on_enqueue(const rop::mem::Request& req,
                                       rop::Cycle now) override;
  void on_demand_serviced(const rop::mem::Request& req,
                          rop::Cycle now) override;
  void on_rank_locked(rop::RankId rank, rop::Cycle now) override;
  void on_refresh_issued(rop::RankId rank, rop::Cycle start,
                         rop::Cycle done) override;
  void on_prefetch_filled(const rop::mem::Request& req,
                          rop::Cycle now) override;
  void on_tick(rop::Cycle now) override;
  void on_finalize(rop::Cycle now) override { inner_.on_finalize(now); }

  /// Outermost calls, timed.
  [[nodiscard]] const Span& span(Hook h) const {
    return spans_[static_cast<std::size_t>(h)];
  }
  /// Calls made from inside another hook (counted, not timed).
  [[nodiscard]] std::uint64_t nested(Hook h) const {
    return nested_[static_cast<std::size_t>(h)];
  }
  /// Clock reading taken as on_tick returned, consumed by the auditor at
  /// the end of the same tick; -1 when none is pending.
  std::int64_t tick_return_ns = -1;

 private:
  template <class Fn>
  decltype(auto) timed(Hook h, Fn&& fn);

  rop::mem::ControllerListener& inner_;
  std::array<Span, kHookCount> spans_{};
  std::array<std::uint64_t, kHookCount> nested_{};
  int depth_ = 0;
};

class CountingAuditor final : public rop::mem::ControllerAuditor {
 public:
  void on_tick_end(const rop::mem::Controller& ctrl, rop::Cycle now) override;
  void on_retired(const rop::mem::Request& req) override;

  /// The channel's TimedListener, when it has one.
  TimedListener* listener = nullptr;
  std::uint64_t ticks = 0;
  std::uint64_t reads_retired = 0;
  /// From on_tick's return to the end of the tick: refresh management and
  /// the scheduler pick.
  Span sched_refresh;
};

/// One auditor per channel and one listener per ROP engine, installed
/// through SimInstanceHooks. Must outlive every tick of the instance.
class LayerProbes {
 public:
  [[nodiscard]] rop::sim::SimInstanceHooks hooks();

  [[nodiscard]] std::uint64_t ticks() const;
  [[nodiscard]] std::uint64_t reads_retired() const;
  [[nodiscard]] Span hook_span(Hook h) const;
  [[nodiscard]] std::uint64_t hook_calls(Hook h) const;
  [[nodiscard]] Span sched_refresh() const;
  [[nodiscard]] std::size_t channels() const { return auditors_.size(); }

 private:
  rop::mem::MemorySystem* memory_ = nullptr;
  std::vector<std::unique_ptr<CountingAuditor>> auditors_;
  std::vector<std::unique_ptr<TimedListener>> listeners_;
};

/// Rebuilds the result fields run_experiment derives after the run (energy,
/// ROP metrics, refresh blocking) for an instance driven by hand, so its
/// stats JSON is comparable to run_experiment's.
void finish_result(const rop::sim::ExperimentSpec& spec,
                   rop::sim::SimInstance& inst,
                   rop::sim::ExperimentResult* result);

struct TracedRun {
  rop::sim::ExperimentResult result;
  std::string stats_json;
  /// Host seconds from begin_run to finish_run (snapshot timing excluded).
  double run_s = 0.0;
  /// System::advance_until chunks (exact workloads).
  Span advance;
  std::uint64_t ticks = 0;
  std::uint64_t reads_retired = 0;
  std::array<Span, kHookCount> hooks{};
  std::array<std::uint64_t, kHookCount> hook_calls{};
  Span sched_refresh;
  std::size_t channels = 0;
  /// save/load of the warm instance (exact workloads), one entry per round.
  std::vector<double> save_ms;
  std::vector<double> load_ms;
  double snapshot_mb = 0.0;
};

/// The run_experiment path with probes attached: exact specs run in
/// advance_until chunks; sampled specs run run_parallel_sampled on a probed
/// backbone.
[[nodiscard]] TracedRun traced_run(const rop::sim::ExperimentSpec& spec);

/// Serial re-enactment of planned sampling: functional_window chunks on a
/// backbone, and for each planned window save_snapshot_buffer, one replica
/// (built once, probed), load_snapshot_buffer and advance_until for
/// warmup + detail. Its window IPCs must equal `expected`'s observations.
struct SamplingReplay {
  Span functional;
  Span save;
  Span load;
  Span window;
  double replica_build_s = 0.0;
  std::uint64_t windows = 0;
  /// LLC accesses made inside the windows (the records the detailed
  /// windows pulled).
  std::uint64_t window_llc_accesses = 0;
  double snapshot_mb = 0.0;
  bool observations_match = false;
  std::uint64_t ticks = 0;
  std::uint64_t reads_retired = 0;
  std::array<Span, kHookCount> hooks{};
  std::array<std::uint64_t, kHookCount> hook_calls{};
  Span sched_refresh;
  std::uint64_t mem_cycles = 0;  // simulated in the windows
  /// rop.phase_accuracy samples recorded inside the windows.
  double accuracy_sum = 0.0;
  std::uint64_t accuracy_count = 0;
};

[[nodiscard]] SamplingReplay replay_sampling(
    const rop::sim::ExperimentSpec& spec,
    const rop::sim::SamplingSummary& expected);

/// SyntheticTrace::next and Llc::access replayed alone on the spec's
/// profiles, seed and LLC geometry (at most `max_records` records).
struct StreamReplay {
  double next_ns = 0.0;
  double access_ns = 0.0;
};

[[nodiscard]] StreamReplay replay_streams(const rop::sim::ExperimentSpec& spec,
                                          std::uint64_t max_records);

}  // namespace hostbench
