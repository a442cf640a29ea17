// One fully constructed simulator for an ExperimentSpec, factored out of
// run_experiment so other drivers can build byte-compatible replicas.
//
// The parallel-sampling worker pool is the motivating consumer: each worker
// needs its own memory system, engines, traces, and CPU system whose stat
// registry and serialization layout are *identical* to the planner's, so an
// in-memory snapshot saved on one instance restores onto another. That
// compatibility hinges on construction order — every registry registration
// (memory system, then engines, then the CPU system's per-core mirrors)
// must happen in the same sequence on both sides. build_sim_instance is the
// single place that order lives; run_experiment composes its extras (trace
// sink, invariant checkers) through the hooks so it cannot drift.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "cpu/system.h"
#include "mem/memory_system.h"
#include "rop/rop_engine.h"
#include "sim/experiment.h"
#include "sim/snapshot.h"
#include "workload/synthetic.h"
#include "workload/trace_io.h"

namespace rop::sim {

struct SimInstance {
  /// Owned registry when build_sim_instance was not handed an external one;
  /// `registry` points at whichever is live.
  std::unique_ptr<StatRegistry> owned_stats;
  StatRegistry* registry = nullptr;
  std::unique_ptr<mem::MemorySystem> memory;
  std::vector<std::unique_ptr<engine::RopEngine>> engines;
  std::vector<std::unique_ptr<workload::SyntheticTrace>> traces;
  /// Trace-file sources of a spec with `trace_files` (`traces` is then
  /// empty; validate() keeps such specs away from snapshots).
  std::vector<std::unique_ptr<workload::MemoryTrace>> replays;
  std::unique_ptr<cpu::System> system;
  std::uint32_t cpu_ratio = 0;
  /// Non-empty when a trace file could not be read: nothing else was built
  /// and the instance must not run.
  std::string error;

  /// Snapshot surface of this instance (sampler and trace sink stay null —
  /// instances built here never attach them).
  [[nodiscard]] SnapshotContext snapshot_context() {
    SnapshotContext ctx;
    ctx.system = system.get();
    ctx.memory = memory.get();
    for (const auto& e : engines) ctx.engines.push_back(e.get());
    for (const auto& t : traces) ctx.traces.push_back(t.get());
    ctx.stats = registry;
    return ctx;
  }
};

/// Optional composition points for run_experiment's extras. Both run before
/// any simulation; neither may register stats (registry layout must match
/// across instances built from the same spec with different hooks only when
/// the hooks are registration-free — the trace sink and checkers are).
struct SimInstanceHooks {
  /// After the memory system exists, before the ROP engines (run_experiment
  /// attaches the trace sink and the per-channel checkers here).
  std::function<void(mem::MemorySystem&)> post_memory;
  /// After the engines exist (checker watch hooks).
  std::function<void(std::vector<std::unique_ptr<engine::RopEngine>>&)>
      post_engines;
};

/// Build the full simulator for `spec` in the canonical registration order:
/// memory system -> [hooks.post_memory] -> ROP engines ->
/// [hooks.post_engines] -> traces -> CPU system. Trace files are read first, so an unreadable one returns
/// an instance holding only `error`. `external_stats` non-null routes
/// every registration into the caller's registry (run_experiment's
/// result.stats); null gives the instance its own.
[[nodiscard]] SimInstance build_sim_instance(
    const ExperimentSpec& spec, StatRegistry* external_stats = nullptr,
    const SimInstanceHooks& hooks = {});

}  // namespace rop::sim
