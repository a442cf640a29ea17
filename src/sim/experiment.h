// Experiment runner: assemble a full system (workloads -> cores -> LLC ->
// controller [-> ROP engine] -> DRAM -> power model), run it, and return
// the metric bundle every bench and example consumes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "cpu/system.h"
#include "energy/dram_power.h"
#include "rop/rop_engine.h"
#include "sim/presets.h"
#include "sim/sampling.h"
#include "telemetry/telemetry.h"
#include "workload/spec_profiles.h"

namespace rop::sim {

/// Checkpoint/restore controls (see sim/snapshot.h). Paths are not part of
/// the config fingerprint: both sides of a save/restore must otherwise run
/// the identical spec.
struct SnapshotSpec {
  /// Restore from this file before executing anything (the file's
  /// fingerprint must match the spec).
  std::string in;
  /// Checkpoint destination for `every` / `stop_at`.
  std::string out;
  /// > 0: write `out` every N CPU cycles (atomically; the previous
  /// checkpoint survives a kill mid-write).
  std::uint64_t every = 0;
  /// > 0: stop the run at this CPU cycle, write `out`, and return a
  /// partial result flagged `interrupted` — the split half of the
  /// bit-identity tests, and the campaign's kill hook.
  std::uint64_t stop_at = 0;

  [[nodiscard]] bool any() const { return !in.empty() || !out.empty(); }
};

/// CPU cycles per instruction at which ropsim and campaign cells cut a run
/// short: their max_cpu_cycles is instructions_per_core times this.
inline constexpr std::uint64_t kCpuCyclesPerInstructionCap = 256;
/// The largest instructions_per_core validate() accepts: the product above
/// must not wrap.
inline constexpr std::uint64_t kMaxInstructionsPerCore =
    ~std::uint64_t{0} / kCpuCyclesPerInstructionCap;

struct ExperimentSpec {
  /// One benchmark name per core (see workload::kBenchmarkNames); with
  /// `trace_files` set, only the cores' labels.
  std::vector<std::string> benchmarks;
  /// Trace-file workload source: when non-empty, core c replays
  /// trace_files[c] (the text format of workload/trace_io.h, looping) in
  /// place of the synthetic profile. One entry per core; exact
  /// single-channel runs only (see validate()).
  std::vector<std::string> trace_files;
  MemoryMode mode = MemoryMode::kBaseline;
  bool rank_partition = false;
  std::uint32_t ranks = 1;
  /// Memory channels (the paper's Table III point is 1; campaign sweeps
  /// extend it). The event loop advances each channel on its own event
  /// clock; the naive loop ticks all of them at every boundary.
  std::uint32_t channels = 1;
  /// Ignored. Kept so specs and command lines that still set it (campaign
  /// "shard_channels", ropsim --shard-channels) parse; every event-driven
  /// run already uses the per-channel clocks, and no output depends on it.
  std::uint32_t shard_channels = 0;
  std::uint64_t llc_bytes = 2ull << 20;
  engine::RopConfig rop{};  // consulted when mode == kRop
  dram::RefreshMode refresh_mode = dram::RefreshMode::k1x;
  std::uint64_t instructions_per_core = 5'000'000;
  std::uint64_t max_cpu_cycles = 2'000'000'000;
  std::uint64_t seed_salt = 0;
  /// Simulation-loop strategy (bit-identical across both; see
  /// cpu::LoopMode). kNaive is the cross-checking reference.
  cpu::LoopMode loop = cpu::LoopMode::kEventDriven;
  /// Audit the run with check::SimChecker (per-tick invariants + end-of-run
  /// request conservation); a violation aborts the experiment with a
  /// report. Also enabled by ROP_CHECK=1 in the environment or the
  /// ROP_ENABLE_CHECKER CMake option (ROP_CHECK=0 overrides the latter).
  bool check = false;
  /// Observability: epoch sampling and/or event tracing. Both default off
  /// (zero hot-path cost beyond a null-pointer compare).
  telemetry::TelemetryConfig telemetry{};
  /// Checkpoint/restore (mutually exclusive with `sampling.enabled`). A
  /// checked run's checker counters travel in the snapshot, so the audit
  /// spans a restore; sampled runs stay unchecked (a functional jump skips
  /// the ticks the audit would count).
  SnapshotSpec snapshot{};
  /// SMARTS-style sampled execution (event loop only; see sim/sampling.h).
  SamplingSpec sampling{};
  /// Live-ops heartbeat: when non-empty, append one JSONL progress line to
  /// this file every `progress_every` CPU cycles and once at the end (see
  /// telemetry::ProgressWriter). Exact runs only (ignored while sampling).
  /// Like snapshot paths, not part of the config fingerprint — the
  /// heartbeat is an operational side channel, not simulated behavior.
  std::string progress_file;
  std::uint64_t progress_every = 10'000'000;
};

struct ExperimentResult {
  cpu::RunResult run;
  energy::EnergyBreakdown energy;
  StatRegistry stats;

  /// CPU cycles per memory-controller cycle for this run (the attribution
  /// block exports it so consumers can convert stack entries to ns).
  std::uint32_t cpu_ratio = 0;

  // Invariant-checker outcome (zeros when the checker was disabled).
  std::uint64_t checker_ticks = 0;
  std::uint64_t checker_violations = 0;

  /// Non-empty when the run could not finish because of an input that only
  /// fails once the run is under way: an unreadable trace file, or a
  /// snapshot that does not restore or cannot be written. Every other
  /// field is then meaningless.
  std::string error;

  /// Wall-clock seconds spent inside System::run (simulation only — no
  /// construction, finalization, or energy accounting).
  double wall_seconds = 0.0;

  /// Simulation throughput: simulated memory-controller cycles per
  /// wall-clock second. The headline number for the event-driven clock.
  [[nodiscard]] double sim_cycles_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(run.mem_cycles) / wall_seconds
               : 0.0;
  }

  // ROP-specific metrics (zero/defaults for baseline and no-refresh).
  double sram_hit_rate = 0.0;
  double lambda = 1.0;
  double beta = 1.0;
  std::uint64_t refreshes = 0;

  // Refresh blocking statistics (1x / 2x / 4x examined windows, Figs 2-3).
  std::vector<double> nonblocking_fraction;
  std::vector<double> mean_blocked_per_blocking_refresh;
  std::vector<std::uint64_t> max_blocked;

  /// Sampled-execution estimates (enabled == false for exact runs).
  SamplingSummary sampling{};
  /// True when snapshot.stop_at ended the run early: the result is a
  /// partial checkpoint, not a finished experiment.
  bool interrupted = false;

  /// Epoch time-series / event trace captured during the run (null when the
  /// spec did not enable them). shared_ptr keeps the result copyable and the
  /// sinks alive independent of the (destroyed) memory system.
  std::shared_ptr<telemetry::EpochSampler> epochs;
  std::shared_ptr<telemetry::TraceSink> trace;

  [[nodiscard]] double ipc(std::size_t core = 0) const {
    return run.cores.at(core).ipc;
  }
  [[nodiscard]] double total_energy_mj() const { return energy.total_mj(); }

  /// Full machine-readable dump: run metrics, energy breakdown, every
  /// registered counter/scalar/histogram, and the epoch series (schema in
  /// telemetry/stats_json.h and docs/OBSERVABILITY.md).
  [[nodiscard]] std::string to_json() const;

  /// Weighted-speedup helper (Eq. 4): sum over cores of
  /// IPC_shared / IPC_alone, with IPC_alone supplied by the caller.
  [[nodiscard]] double weighted_speedup(
      const std::vector<double>& ipc_alone) const;
};

/// The one place that says whether a spec can run: every flag-combination
/// and range rule. ropsim, the campaign expander and run_experiment all
/// call it. Returns a one-line reason for the first rule broken, or
/// nullopt for a valid spec.
[[nodiscard]] std::optional<std::string> validate(const ExperimentSpec& spec);

/// Run one experiment end to end. Deterministic for a fixed spec, which
/// must pass validate(); input failures discovered mid-run come back in
/// ExperimentResult::error.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentSpec& spec);

/// Worker threads one run of `spec` occupies: the sampling job count for a
/// sampled run, else 1 (every channel advances on the calling thread).
/// The runner and the campaign engine divide the machine budget by the
/// widest pending spec so jobs * width never oversubscribes (see
/// sim/worker_budget.h). A sampled run occupies jobs + 2 threads
/// (the window workers, the planner and the backbone walker), but its
/// width stays `jobs`: the planner and the walker each spend part of
/// their time waiting on the other, and the budget counts the workers.
/// Counting them (jobs + 1 or jobs + 2) made an 8-cell sampled lbm grid
/// 1.4x-2.7x slower on 4 hardware threads (docs/PERFORMANCE.md §17).
[[nodiscard]] unsigned experiment_worker_width(const ExperimentSpec& spec);

/// True when runs should be audited: spec-independent part of the
/// ExperimentSpec::check resolution (ROP_CHECK env var, CMake default).
[[nodiscard]] bool checker_enabled_by_environment();

/// Convenience for single-benchmark single-core specs.
[[nodiscard]] ExperimentSpec single_core_spec(std::string benchmark,
                                              MemoryMode mode,
                                              std::uint64_t llc_bytes = 2ull
                                                                        << 20);

/// Spec for a 4-core workload mix WL1..WL6 on a 4-rank memory.
[[nodiscard]] ExperimentSpec multi_core_spec(std::uint32_t wl, MemoryMode mode,
                                             bool rank_partition,
                                             std::uint64_t llc_bytes = 4ull
                                                                       << 20);

}  // namespace rop::sim
