// Microbenchmarks (google-benchmark) for the SMARTS sampled-execution
// machinery and the snapshot serializer: the CI estimator, a full sampled
// run vs its exact twin (the speedup the sampling block buys at bench
// scale), and an end-to-end checkpoint save + bit-identical restore.
// Gated numbers live in BENCH_sampling.json (ci_baseline_ns); the
// billion-cycle end-to-end wall-clock rows in that file come from ropsim
// runs, not this binary.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/sampling.h"
#include "sim/sim_instance.h"
#include "sim/snapshot.h"
#include "workload/spec_profiles.h"

namespace {

using namespace rop;

sim::ExperimentSpec lbm_spec(std::uint64_t instructions) {
  sim::ExperimentSpec spec;
  spec.benchmarks = {"lbm"};
  spec.mode = sim::MemoryMode::kRop;
  spec.instructions_per_core = instructions;
  spec.max_cpu_cycles = instructions * 256;
  return spec;
}

// The per-window estimator update: mean, stderr, and the t-quantile CI
// over a realistic window count. The planner pays this once per placed
// window when a CI target is set, so it must stay trivially cheap next to
// the detailed window it summarizes.
void BM_EstimatorFromWindows(benchmark::State& state) {
  std::vector<double> obs;
  obs.reserve(256);
  std::uint64_t v = 99;
  for (int i = 0; i < 256; ++i) {
    v = v * 2862933555777941757ull + 3037000493ull;
    obs.push_back(2.0 + static_cast<double>(v >> 54) / 512.0);
  }
  for (auto _ : state) {
    const sim::SamplingEstimate e = sim::estimate_from(obs);
    benchmark::DoNotOptimize(e.ci95_half);
  }
}

// Exact twin of the sampled run below: same workload, same horizon,
// every cycle detailed. The sampled/exact ratio at this scale is the
// floor of what sampling buys (the win grows with the horizon — see the
// end_to_end_seconds rows in BENCH_sampling.json).
void BM_ExactExperiment(benchmark::State& state) {
  const sim::ExperimentSpec spec = lbm_spec(2'000'000);
  for (auto _ : state) {
    const sim::ExperimentResult r = sim::run_experiment(spec);
    benchmark::DoNotOptimize(r.run.cpu_cycles);
  }
}

// Full sampled run at tuned defaults: the planner's functional-only
// backbone, one snapshot save + restore per window, warmup/detail windows
// on its one default window worker, estimator folds included.
void BM_SampledExperiment(benchmark::State& state) {
  sim::ExperimentSpec spec = lbm_spec(2'000'000);
  spec.sampling.enabled = true;
  for (auto _ : state) {
    const sim::ExperimentResult r = sim::run_experiment(spec);
    benchmark::DoNotOptimize(r.sampling.ipc.mean);
  }
}

// End-to-end checkpoint cost: run to an interior cycle, serialize the
// full simulator to disk (atomic tmp+rename), then restore and finish.
// This is what a campaign cell pays per snapshot_every period plus what
// a resume pays once; both halves ride the same serializer.
void BM_SnapshotSaveRestore(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "rop_bench_ck.snap")
          .string();
  sim::ExperimentSpec save = lbm_spec(200'000);
  save.snapshot.out = path;
  save.snapshot.stop_at = 30'001;
  sim::ExperimentSpec restore = lbm_spec(200'000);
  restore.snapshot.in = path;
  for (auto _ : state) {
    const sim::ExperimentResult half = sim::run_experiment(save);
    const sim::ExperimentResult rest = sim::run_experiment(restore);
    benchmark::DoNotOptimize(half.interrupted);
    benchmark::DoNotOptimize(rest.run.cpu_cycles);
  }
  std::remove(path.c_str());
}

// Planned parallel sampling at the same scale: one functional-only
// planner pass dropping in-memory snapshots, windows dispatched to a
// 4-worker pool (sim/parallel_sampling). Against BM_SampledExperiment's
// one worker this measures the extra replicas and the dispatch; the
// speedup itself needs real cores (see end_to_end_seconds).
void BM_ParallelSampledExperiment(benchmark::State& state) {
  sim::ExperimentSpec spec = lbm_spec(2'000'000);
  spec.sampling.enabled = true;
  spec.sampling.jobs = 4;
  for (auto _ : state) {
    const sim::ExperimentResult r = sim::run_experiment(spec);
    benchmark::DoNotOptimize(r.sampling.ipc.mean);
  }
}

// The unit the parallel planner pays per placed window: serialize the
// full simulator into an in-memory buffer and restore it onto a replica
// instance — no filesystem in the loop, unlike BM_SnapshotSaveRestore.
void BM_SnapshotInMemoryRoundTrip(benchmark::State& state) {
  const sim::ExperimentSpec spec = lbm_spec(200'000);
  sim::SimInstance planner = sim::build_sim_instance(spec);
  planner.system->begin_run(spec.instructions_per_core, spec.max_cpu_cycles);
  (void)planner.system->advance_until(30'001);
  const sim::SnapshotContext src = planner.snapshot_context();

  sim::SimInstance replica = sim::build_sim_instance(spec);
  replica.system->begin_run(spec.instructions_per_core, spec.max_cpu_cycles);
  const sim::SnapshotContext dst = replica.snapshot_context();

  const std::uint64_t fp =
      sim::config_fingerprint(sim::spec_canonical(spec));
  for (auto _ : state) {
    const std::string buf = sim::save_snapshot_buffer(src, fp);
    std::string err;
    const bool ok = sim::load_snapshot_buffer(buf, dst, fp, &err);
    benchmark::DoNotOptimize(ok);
  }
}

}  // namespace

BENCHMARK(BM_EstimatorFromWindows);
BENCHMARK(BM_ExactExperiment)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SampledExperiment)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelSampledExperiment)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SnapshotSaveRestore)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SnapshotInMemoryRoundTrip)->Unit(benchmark::kMillisecond);
