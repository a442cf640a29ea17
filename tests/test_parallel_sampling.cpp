// Checkpoint-spawned parallel sampling (sim/parallel_sampling): the
// determinism contract (observation set bit-identical to the sequential
// pool at every worker count, across schemes), the stratified-placement
// accuracy win under a window budget, deterministic auto-stop, the
// worker-budget accounting shared with the campaign engine, and
// kill-and-resume of parallel-sampled campaign cells.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "energy/dram_power.h"
#include "sim/campaign.h"
#include "sim/experiment.h"
#include "sim/parallel_sampling.h"
#include "sim/sampling.h"
#include "sim/sim_instance.h"
#include "sim/snapshot.h"
#include "sim/worker_budget.h"

namespace rop::sim {
namespace {

namespace fs = std::filesystem;

ExperimentSpec planned_spec(const std::string& bench, MemoryMode mode,
                            std::uint32_t jobs, std::uint32_t strata = 0) {
  ExperimentSpec spec = single_core_spec(bench, mode);
  spec.instructions_per_core = 2'000'000;
  spec.sampling.enabled = true;
  spec.sampling.jobs = jobs;
  spec.sampling.strata = strata;
  return spec;
}

void expect_same_observations(const SamplingSummary& a,
                              const SamplingSummary& b) {
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_EQ(a.measured_cpu_cycles, b.measured_cpu_cycles);
  EXPECT_EQ(a.functional_cpu_cycles, b.functional_cpu_cycles);
  EXPECT_EQ(a.ci_converged, b.ci_converged);
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.strata, b.strata);
  // Estimates must match to the last bit, not approximately: the merge is
  // in placement order, so the estimator sees the identical input vector.
  EXPECT_EQ(a.ipc.mean, b.ipc.mean);
  EXPECT_EQ(a.ipc.stderr_, b.ipc.stderr_);
  EXPECT_EQ(a.ipc.ci95_half, b.ipc.ci95_half);
  EXPECT_EQ(a.energy_mj_per_mcycle.mean, b.energy_mj_per_mcycle.mean);
  EXPECT_EQ(a.energy_mj_per_mcycle.ci95_half,
            b.energy_mj_per_mcycle.ci95_half);
  EXPECT_EQ(a.refresh_blocked_per_mem_cycle.mean,
            b.refresh_blocked_per_mem_cycle.mean);
  ASSERT_EQ(a.observations.size(), b.observations.size());
  for (std::size_t i = 0; i < a.observations.size(); ++i) {
    const WindowObservation& x = a.observations[i];
    const WindowObservation& y = b.observations[i];
    EXPECT_EQ(x.index, y.index) << "window " << i;
    EXPECT_EQ(x.stratum, y.stratum) << "window " << i;
    EXPECT_EQ(x.cpu_cycles, y.cpu_cycles) << "window " << i;
    EXPECT_EQ(x.ipc, y.ipc) << "window " << i;
    EXPECT_EQ(x.energy_mj_per_mcycle, y.energy_mj_per_mcycle)
        << "window " << i;
    EXPECT_EQ(x.refresh_blocked_per_mem_cycle,
              y.refresh_blocked_per_mem_cycle)
        << "window " << i;
  }
}

// ---------------------------------------------------------------------------
// (a) Observation-set bit-identity, sequential pool vs N workers, at fixed
// placement, across the scheme zoo the sweeps actually run.

class ParallelSamplingIdentity
    : public ::testing::TestWithParam<MemoryMode> {};

TEST_P(ParallelSamplingIdentity, SequentialAndParallelWorkersMatch) {
  const MemoryMode mode = GetParam();
  ExperimentResult seq = run_experiment(planned_spec("lbm", mode, 1));
  ExperimentResult par = run_experiment(planned_spec("lbm", mode, 3));
  ASSERT_GT(seq.sampling.windows, 0u);
  EXPECT_EQ(seq.sampling.placement, SamplingPlacement::kUniform);
  EXPECT_EQ(seq.sampling.workers, 1u);
  EXPECT_EQ(par.sampling.workers, 3u);
  expect_same_observations(seq.sampling, par.sampling);
  // The whole stats document agrees too, once the two operational fields
  // (wall clock, worker count) are held equal.
  seq.wall_seconds = par.wall_seconds = 0.0;
  par.sampling.workers = seq.sampling.workers;
  EXPECT_EQ(seq.to_json(), par.to_json());
}

INSTANTIATE_TEST_SUITE_P(SchemeZoo, ParallelSamplingIdentity,
                         ::testing::Values(MemoryMode::kBaseline,
                                           MemoryMode::kRop,
                                           MemoryMode::kDarp,
                                           MemoryMode::kSarp),
                         [](const auto& param_info) {
                           return std::string(
                               memory_mode_name(param_info.param));
                         });

TEST(ParallelSampling, StratifiedPlacementIsAlsoWorkerCountInvariant) {
  ExperimentResult seq = run_experiment(planned_spec("lbm", MemoryMode::kRop,
                                                     1, /*strata=*/4));
  ExperimentResult par = run_experiment(planned_spec("lbm", MemoryMode::kRop,
                                                     3, /*strata=*/4));
  ASSERT_GT(seq.sampling.windows, 0u);
  EXPECT_EQ(seq.sampling.placement, SamplingPlacement::kStratified);
  EXPECT_EQ(seq.sampling.strata, 4u);
  expect_same_observations(seq.sampling, par.sampling);
}

// ---------------------------------------------------------------------------
// (b) Stratified placement accuracy: under a window budget the uniform
// planner spends every window at the start of the run (the cap binds before
// the later strata are reached), so on a phase-changing profile like lbm
// the estimate only sees the fast early phase. The stratified planner
// re-divides the remaining budget over the remaining strata at each
// stratum boundary and Neyman-weights the estimator by observed
// functional cycles, recovering full-horizon coverage from the same
// number of windows.

TEST(ParallelSampling, StratifiedBeatsUniformUnderWindowBudget) {
  ExperimentSpec exact_spec = single_core_spec("lbm", MemoryMode::kRop);
  exact_spec.instructions_per_core = 40'000'000;
  const ExperimentResult exact = run_experiment(exact_spec);
  const double exact_ipc =
      static_cast<double>(exact.run.cores[0].instructions) /
      static_cast<double>(exact.run.cores[0].cpu_cycles);

  ExperimentSpec uniform = planned_spec("lbm", MemoryMode::kRop, 2);
  uniform.instructions_per_core = 40'000'000;
  // The stride of the measurement quoted below, not the horizon's 400k.
  uniform.sampling.functional_instructions = 100'000;
  uniform.sampling.max_windows = 24;
  ExperimentSpec stratified = uniform;
  stratified.sampling.strata = 8;

  const ExperimentResult u = run_experiment(uniform);
  const ExperimentResult s = run_experiment(stratified);
  ASSERT_EQ(u.sampling.windows, 24u);
  ASSERT_EQ(s.sampling.windows, 24u);

  const double uniform_err = std::abs(u.sampling.ipc.mean - exact_ipc);
  const double strat_err = std::abs(s.sampling.ipc.mean - exact_ipc);
  // Measured on this profile: uniform ~19% off (all 24 windows land in the
  // first tenth of the run), stratified ~1.5%. Assert a conservative 4x
  // improvement and a sane absolute bound so the test tolerates drift in
  // the profile generator without losing the claim.
  EXPECT_LT(strat_err, uniform_err / 4.0)
      << "stratified " << s.sampling.ipc.mean << " vs uniform "
      << u.sampling.ipc.mean << " vs exact " << exact_ipc;
  EXPECT_LT(strat_err / exact_ipc, 0.05)
      << "stratified IPC " << s.sampling.ipc.mean << " vs exact "
      << exact_ipc;
}

// ---------------------------------------------------------------------------
// Deterministic auto-stop: --sample-target-ci under parallel dispatch must
// pick the same window count as the sequential pool — the stop decision for
// ordinal n only looks at the completed prefix n - kAutoStopLookahead.

TEST(ParallelSampling, AutoStopPicksSameWindowCountAtEveryWorkerCount) {
  ExperimentSpec spec = planned_spec("libquantum", MemoryMode::kBaseline, 1);
  spec.instructions_per_core = 20'000'000;
  spec.sampling.min_windows = 4;
  spec.sampling.target_ci_frac = 0.10;
  const ExperimentResult seq = run_experiment(spec);
  spec.sampling.jobs = 4;
  ExperimentResult par = run_experiment(spec);

  EXPECT_TRUE(seq.sampling.ci_converged);
  EXPECT_TRUE(par.sampling.ci_converged);
  EXPECT_EQ(seq.sampling.windows, par.sampling.windows);
  expect_same_observations(seq.sampling, par.sampling);
  // Auto-stop fired well before the full horizon.
  EXPECT_LT(seq.run.cores[0].instructions, spec.instructions_per_core);
}

// ---------------------------------------------------------------------------
// The pipelined backbone: the planner applies chunks a walker thread walked
// ahead (sim/backbone_walker.h). Re-enacting the plan serially through
// public calls — System::functional_window(chunk, penalty) on a backbone,
// save_snapshot_buffer at each planned window, a replica restore and
// advance_until — must give bit-equal observations.

struct SerialPlan {
  std::vector<WindowObservation> observations;
  std::uint64_t functional_cpu_cycles = 0;
  cpu::RunResult run;
  std::map<std::string, std::uint64_t> counters;  // the backbone's
};

/// The planner and one window worker of sim/parallel_sampling.cpp, run on
/// the calling thread, with the backbone advanced by
/// Core::functional_advance. Uniform or stratified placement; no window
/// cap and no auto-stop.
SerialPlan replay_plan_serially(const ExperimentSpec& spec) {
  const SamplingSpec& s = spec.sampling;
  const std::uint64_t fp = config_fingerprint(spec_canonical(spec));
  SimInstance backbone = build_sim_instance(spec);
  cpu::System& system = *backbone.system;
  system.begin_run(spec.instructions_per_core, spec.max_cpu_cycles);
  const SnapshotContext ctx = backbone.snapshot_context();

  SimInstance replica = build_sim_instance(spec);
  cpu::System& rs = *replica.system;
  rs.begin_run(spec.instructions_per_core, spec.max_cpu_cycles);
  const SnapshotContext replica_ctx = replica.snapshot_context();
  const energy::DramPowerModel power(energy::DramEnergyParams{},
                                     replica.memory->config().timings);
  Counter* const blocked =
      replica.memory->stats()->counter_handle("mem.refresh_blocked_cycles");
  const auto instructions = [&rs] {
    std::uint64_t n = 0;
    for (CoreId c = 0; c < rs.num_cores(); ++c) {
      n += rs.core(c).stats().instructions;
    }
    return n;
  };

  const std::uint64_t chunk = std::max<std::uint64_t>(
      1, sampling_stride(s, spec.instructions_per_core) / kPlannerOversample);
  const std::uint64_t planned =
      (spec.instructions_per_core + chunk - 1) / chunk;
  double credit = 0.0;
  double total_weight = 0.0;
  std::uint32_t prev_stratum = ~0u;
  std::uint64_t miss_prev = system.llc_misses();
  std::uint64_t placed = 0;
  SerialPlan out;
  for (std::uint64_t i = 0; i < planned; ++i) {
    if (system.cores_remaining() == 0 ||
        system.cpu_cycle() >= system.max_cpu_cycles()) {
      break;
    }
    const std::uint32_t stratum =
        s.strata == 0 ? 0
                      : static_cast<std::uint32_t>(std::min<std::uint64_t>(
                            s.strata - 1, i * s.strata / planned));
    bool place;
    if (s.strata == 0) {
      place = i % kPlannerOversample == 0;
    } else if (stratum != prev_stratum) {
      place = true;
      credit = 0.0;
    } else {
      place = credit >= static_cast<double>(kPlannerOversample);
      if (place) credit -= static_cast<double>(kPlannerOversample);
    }
    prev_stratum = stratum;

    if (place) {
      std::string err;
      const bool ok = load_snapshot_buffer(save_snapshot_buffer(ctx, fp),
                                           replica_ctx, fp, &err);
      EXPECT_TRUE(ok) << err;
      WindowObservation obs;
      obs.index = placed++;
      obs.stratum = stratum;
      if (!rs.advance_until(rs.cpu_cycle() + s.warmup_cycles)) {
        const std::uint64_t c0 = rs.cpu_cycle();
        const std::uint64_t i0 = instructions();
        const std::uint64_t b0 = blocked->value();
        const double e0 = sampled_window_energy_mj(*replica.memory, power,
                                                   c0 / rs.cpu_ratio());
        (void)rs.advance_until(c0 + s.detail_cycles);
        const std::uint64_t c1 = rs.cpu_cycle();
        if (c1 > c0) {
          const double dc = static_cast<double>(c1 - c0);
          const double dm = dc / static_cast<double>(rs.cpu_ratio());
          obs.cpu_cycles = c1 - c0;
          obs.ipc = static_cast<double>(instructions() - i0) / dc;
          obs.refresh_blocked_per_mem_cycle =
              static_cast<double>(blocked->value() - b0) / dm;
          const double e1 = sampled_window_energy_mj(*replica.memory, power,
                                                     c1 / rs.cpu_ratio());
          obs.energy_mj_per_mcycle = (e1 - e0) * 1e6 / dm;
          out.observations.push_back(obs);
        }
      }
    }

    out.functional_cpu_cycles +=
        system.functional_window(chunk, s.critical_penalty);
    const std::uint64_t miss_now = system.llc_misses();
    const double w = 1.0 + static_cast<double>(miss_now - miss_prev);
    miss_prev = miss_now;
    total_weight += w;
    if (s.strata > 0) {
      credit += w / (total_weight / static_cast<double>(i + 1));
    }
  }
  out.run = system.finish_run();
  for (const auto& [name, counter] : backbone.registry->counters()) {
    out.counters[name] = counter.value();
  }
  return out;
}

TEST(ParallelSampling, WalkerBackboneMatchesSerialBackbone) {
  ExperimentSpec lbm = planned_spec("lbm", MemoryMode::kRop, 1);
  ExperimentSpec wl1 = multi_core_spec(1, MemoryMode::kDarp,
                                       /*rank_partition=*/false);
  wl1.instructions_per_core = 1'000'000;
  wl1.sampling.enabled = true;
  for (ExperimentSpec spec : {lbm, wl1}) {
    for (const std::uint32_t strata : {0u, 4u}) {
      spec.sampling.strata = strata;
      SCOPED_TRACE(spec.benchmarks[0] + " cores=" +
                   std::to_string(spec.benchmarks.size()) +
                   " strata=" + std::to_string(strata));
      const SerialPlan serial = replay_plan_serially(spec);
      ASSERT_GT(serial.observations.size(), 4u);
      for (const std::uint32_t jobs : {1u, 3u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        spec.sampling.jobs = jobs;
        const ExperimentResult planned = run_experiment(spec);
        EXPECT_EQ(planned.sampling.functional_cpu_cycles,
                  serial.functional_cpu_cycles);
        const std::vector<WindowObservation>& obs =
            planned.sampling.observations;
        ASSERT_EQ(obs.size(), serial.observations.size());
        for (std::size_t i = 0; i < obs.size(); ++i) {
          const WindowObservation& x = obs[i];
          const WindowObservation& y = serial.observations[i];
          EXPECT_EQ(x.index, y.index) << "window " << i;
          EXPECT_EQ(x.stratum, y.stratum) << "window " << i;
          EXPECT_EQ(x.cpu_cycles, y.cpu_cycles) << "window " << i;
          EXPECT_EQ(x.ipc, y.ipc) << "window " << i;
          EXPECT_EQ(x.energy_mj_per_mcycle, y.energy_mj_per_mcycle)
              << "window " << i;
          EXPECT_EQ(x.refresh_blocked_per_mem_cycle,
                    y.refresh_blocked_per_mem_cycle)
              << "window " << i;
        }
        EXPECT_EQ(planned.run.cpu_cycles, serial.run.cpu_cycles);
        ASSERT_EQ(planned.run.cores.size(), serial.run.cores.size());
        for (std::size_t c = 0; c < serial.run.cores.size(); ++c) {
          EXPECT_EQ(planned.run.cores[c].instructions,
                    serial.run.cores[c].instructions);
          EXPECT_EQ(planned.run.cores[c].cpu_cycles,
                    serial.run.cores[c].cpu_cycles);
        }
        // Every backbone counter, the LLC's included.
        for (const auto& [name, value] : serial.counters) {
          const auto it = planned.stats.counters().find(name);
          ASSERT_NE(it, planned.stats.counters().end()) << name;
          EXPECT_EQ(it->second.value(), value) << name;
        }
      }
    }
  }
}

// Every exit from the planning loop stops and joins the walker, which may
// be blocked on a full ring at that moment: the run must end, and its stats
// agree across worker counts. Auto-stop and the cycle limit leave the loop
// early; a window cap stops placement while the backbone runs on.
TEST(ParallelSampling, EveryEarlyExitJoinsTheWalker) {
  ExperimentSpec auto_stop =
      planned_spec("libquantum", MemoryMode::kBaseline, 1);
  auto_stop.instructions_per_core = 20'000'000;
  auto_stop.sampling.min_windows = 4;
  auto_stop.sampling.target_ci_frac = 0.10;
  ExperimentSpec window_cap = planned_spec("lbm", MemoryMode::kRop, 1);
  window_cap.sampling.max_windows = 3;
  ExperimentSpec cycle_limit = planned_spec("lbm", MemoryMode::kRop, 1);
  cycle_limit.max_cpu_cycles = 300'000;
  for (ExperimentSpec spec : {auto_stop, window_cap, cycle_limit}) {
    ExperimentResult seq = run_experiment(spec);
    spec.sampling.jobs = 3;
    ExperimentResult par = run_experiment(spec);
    if (spec.sampling.target_ci_frac > 0.0) {
      EXPECT_TRUE(seq.sampling.ci_converged);
      EXPECT_LT(seq.run.cores[0].instructions, spec.instructions_per_core);
    } else if (spec.sampling.max_windows > 0) {
      EXPECT_EQ(seq.sampling.windows, spec.sampling.max_windows);
    } else {
      EXPECT_TRUE(seq.run.hit_cycle_limit);
      EXPECT_LT(seq.run.cores[0].instructions, spec.instructions_per_core);
    }
    seq.wall_seconds = par.wall_seconds = 0.0;
    par.sampling.workers = seq.sampling.workers;
    EXPECT_EQ(seq.to_json(), par.to_json());
  }
}

// ---------------------------------------------------------------------------
// Worker accounting: a planned-sampled spec occupies `jobs` workers, and
// the shared budget rule keeps cells x window-jobs within the machine.

TEST(WorkerBudget, SampledCellCountsItsWindowJobs) {
  ExperimentSpec spec = planned_spec("lbm", MemoryMode::kRop, 4);
  EXPECT_EQ(experiment_worker_width(spec), 4u);

  spec.sampling.enabled = false;
  EXPECT_EQ(experiment_worker_width(spec), 1u);

  ExperimentSpec multi = single_core_spec("lbm", MemoryMode::kBaseline);
  multi.channels = 4;  // every channel advances on the calling thread
  EXPECT_EQ(experiment_worker_width(multi), 1u);
}

TEST(WorkerBudget, FourSampledCellsOnAnEightBudgetRunTwoAtATime) {
  // 4 campaign cells, each a planned-sampled run with 4 window workers, on
  // a machine budget of 8 hardware threads: the derived job count must be
  // 2 (2 cells x 4 window workers = 8), never 4 (16 threads).
  EXPECT_EQ(worker_budget(/*requested_jobs=*/0, /*workers_per_job=*/4,
                          /*n_tasks=*/4, /*hardware=*/8),
            2u);
  // An explicit request is honored (the user's call), only task-clamped.
  EXPECT_EQ(worker_budget(3, 4, 4, 8), 3u);
  EXPECT_EQ(worker_budget(0, 4, 1, 8), 1u);
  // Width wider than the machine still floors at one job.
  EXPECT_EQ(worker_budget(0, 16, 4, 8), 1u);
}

// ---------------------------------------------------------------------------
// (c) Campaign integration: sampled cells expand with the sampling block,
// occupy `jobs` workers in the budget, and kill-and-resume reproduces the
// uninterrupted merged document byte-for-byte.

constexpr const char* kSampledCampaignSpec = R"({
  "name": "sampled-smoke",
  "instructions_per_core": 2000000,
  "sampling": {"jobs": 2, "strata": 4},
  "axes": {
    "benchmark": ["lbm"],
    "mode": ["baseline", "rop", "sarp"]
  }
})";

std::string write_spec(const std::string& dir, const std::string& text) {
  fs::create_directories(dir);
  const std::string path = dir + "/spec.json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

CampaignOptions quiet_options(const std::string& spec_path,
                              const std::string& out_dir) {
  CampaignOptions opts;
  opts.spec_path = spec_path;
  opts.out_dir = out_dir;
  opts.jobs = 1;
  opts.progress = false;
  return opts;
}

TEST(ParallelSampledCampaign, ExpandsSamplingBlockAndRejectsConflicts) {
  std::string err;
  const auto doc = json::parse(kSampledCampaignSpec, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const auto cells = expand_campaign(*doc, &err);
  ASSERT_TRUE(cells.has_value()) << err;
  ASSERT_EQ(cells->size(), 3u);
  for (const auto& cell : *cells) {
    EXPECT_TRUE(cell.spec.sampling.enabled);
    EXPECT_EQ(cell.spec.sampling.jobs, 2u);
    EXPECT_EQ(cell.spec.sampling.strata, 4u);
    EXPECT_EQ(experiment_worker_width(cell.spec), 2u);
  }

  // Sampling is mutually exclusive with intra-cell checkpoints and epoch
  // telemetry, and needs at least one window worker. shard_channels is
  // ignored, so it no longer conflicts. Each rejection is validate()'s,
  // naming the cell.
  const auto with_snap = json::parse(
      R"({"snapshot_every": 1000, "sampling": {"jobs": 2},
          "axes": {"benchmark": ["lbm"]}})");
  ASSERT_TRUE(with_snap.has_value());
  EXPECT_FALSE(expand_campaign(*with_snap, &err).has_value());
  EXPECT_NE(err.find("snapshot"), std::string::npos);

  const auto with_shards = json::parse(
      R"({"shard_channels": 2, "sampling": {"jobs": 2},
          "axes": {"benchmark": ["lbm"], "channels": [4]}})");
  ASSERT_TRUE(with_shards.has_value());
  EXPECT_TRUE(expand_campaign(*with_shards, &err).has_value()) << err;

  const auto with_epochs = json::parse(
      R"({"epoch_cycles": 1000, "sampling": {},
          "axes": {"benchmark": ["lbm"]}})");
  ASSERT_TRUE(with_epochs.has_value());
  EXPECT_FALSE(expand_campaign(*with_epochs, &err).has_value());
  EXPECT_NE(err.find("cell 0"), std::string::npos) << err;
  EXPECT_NE(err.find("without telemetry sinks"), std::string::npos) << err;

  const auto no_workers = json::parse(
      R"({"sampling": {"jobs": 0}, "axes": {"benchmark": ["lbm"]}})");
  ASSERT_TRUE(no_workers.has_value());
  EXPECT_FALSE(expand_campaign(*no_workers, &err).has_value());
  EXPECT_NE(err.find("sampling.jobs"), std::string::npos) << err;

  // Explicit zeros are taken as written, never replaced by a default:
  // no warmup runs; a zero-cycle window or a zero window minimum is
  // rejected, as on the command line.
  const auto no_warmup = json::parse(
      R"({"sampling": {"warmup_cycles": 0}, "axes": {"benchmark": ["lbm"]}})");
  ASSERT_TRUE(no_warmup.has_value());
  const auto warm = expand_campaign(*no_warmup, &err);
  ASSERT_TRUE(warm.has_value()) << err;
  EXPECT_EQ(warm->at(0).spec.sampling.warmup_cycles, 0u);

  const auto no_detail = json::parse(
      R"({"sampling": {"detail_cycles": 0}, "axes": {"benchmark": ["lbm"]}})");
  ASSERT_TRUE(no_detail.has_value());
  EXPECT_FALSE(expand_campaign(*no_detail, &err).has_value());
  EXPECT_NE(err.find("sampling.detail_cycles"), std::string::npos) << err;

  const auto no_minimum = json::parse(
      R"({"sampling": {"min_windows": 0}, "axes": {"benchmark": ["lbm"]}})");
  ASSERT_TRUE(no_minimum.has_value());
  EXPECT_FALSE(expand_campaign(*no_minimum, &err).has_value());
  EXPECT_NE(err.find("sampling.min_windows"), std::string::npos) << err;

  // Without "jobs" a sampled cell runs the planner with one worker.
  const auto bare_strata = json::parse(
      R"({"sampling": {"strata": 4}, "axes": {"benchmark": ["lbm"]}})");
  ASSERT_TRUE(bare_strata.has_value());
  const auto one_worker = expand_campaign(*bare_strata, &err);
  ASSERT_TRUE(one_worker.has_value()) << err;
  EXPECT_EQ(one_worker->at(0).spec.sampling.jobs, 1u);
}

TEST(ParallelSampledCampaign, KillAndResumeStaysByteIdentical) {
  const std::string base = ::testing::TempDir() + "rop_psample_campaign";
  fs::remove_all(base);
  const std::string spec_path = write_spec(base, kSampledCampaignSpec);

  std::string err;
  const auto full =
      run_campaign(quiet_options(spec_path, base + "/full"), &err);
  ASSERT_TRUE(full.has_value()) << err;
  EXPECT_TRUE(full->complete);
  EXPECT_EQ(full->ran_cells, 3u);

  // Kill after one cell, then resume: the remaining sampled cells run
  // fresh and the merged document matches the uninterrupted reference.
  CampaignOptions killed = quiet_options(spec_path, base + "/resumed");
  killed.stop_after = 1;
  const auto partial = run_campaign(killed, &err);
  ASSERT_TRUE(partial.has_value()) << err;
  EXPECT_FALSE(partial->complete);
  EXPECT_EQ(partial->ran_cells, 1u);

  const auto resumed =
      run_campaign(quiet_options(spec_path, base + "/resumed"), &err);
  ASSERT_TRUE(resumed.has_value()) << err;
  EXPECT_TRUE(resumed->complete);
  EXPECT_EQ(resumed->skipped_cells, 1u);
  EXPECT_EQ(resumed->ran_cells, 2u);
  EXPECT_EQ(slurp(base + "/resumed/merged.json"), slurp(full->merged_path));

  // The per-cell stats documents carry the planner's sampling block.
  for (int i = 0; i < 3; ++i) {
    const std::string cell_path =
        base + "/full/cell_00000" + std::to_string(i) + ".json";
    const auto doc = json::parse(slurp(cell_path), &err);
    ASSERT_TRUE(doc.has_value()) << cell_path << ": " << err;
    const json::Value* sampling = doc->find("sampling");
    ASSERT_NE(sampling, nullptr) << cell_path;
    EXPECT_EQ(sampling->find("placement")->as_string(), "stratified");
    EXPECT_EQ(sampling->find("strata")->as_u64(), 4u);
    EXPECT_EQ(sampling->find("workers")->as_u64(), 2u);
    EXPECT_GT(sampling->find("windows")->as_u64(), 0u);
  }

  fs::remove_all(base);
}

}  // namespace
}  // namespace rop::sim
