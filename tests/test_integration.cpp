// End-to-end integration tests reproducing the paper's qualitative claims
// on short runs: refresh hurts, ROP recovers, energy follows performance.
#include <gtest/gtest.h>

#include "sim/experiment.h"

namespace rop::sim {
namespace {

ExperimentResult run(const std::string& bench, MemoryMode mode,
                     std::uint64_t instructions = 4'000'000) {
  ExperimentSpec spec = single_core_spec(bench, mode);
  spec.instructions_per_core = instructions;
  spec.rop.training_refreshes = 10;
  return run_experiment(spec);
}

TEST(Integration, RefreshCostsPerformanceOnIntensiveBenchmark) {
  const auto base = run("lbm", MemoryMode::kBaseline);
  const auto ideal = run("lbm", MemoryMode::kNoRefresh);
  EXPECT_GT(ideal.ipc(), base.ipc() * 1.01);  // at least ~1% penalty
  EXPECT_LT(ideal.ipc(), base.ipc() * 1.15);  // but bounded by duty cycle
}

TEST(Integration, RefreshBarelyCostsQuietBenchmark) {
  const auto base = run("gobmk", MemoryMode::kBaseline, 2'000'000);
  const auto ideal = run("gobmk", MemoryMode::kNoRefresh, 2'000'000);
  EXPECT_LT(ideal.ipc() / base.ipc(), 1.01);
}

TEST(Integration, RopRecoversRefreshLossOnStreamingBenchmark) {
  const auto base = run("libquantum", MemoryMode::kBaseline, 8'000'000);
  const auto ideal = run("libquantum", MemoryMode::kNoRefresh, 8'000'000);
  const auto rop = run("libquantum", MemoryMode::kRop, 8'000'000);
  EXPECT_GT(rop.ipc(), base.ipc());
  EXPECT_LT(rop.ipc(), ideal.ipc() * 1.02);
  // ROP recovers a substantial fraction of the refresh gap.
  const double recovered = (rop.ipc() - base.ipc()) / (ideal.ipc() - base.ipc());
  EXPECT_GT(recovered, 0.25);
}

TEST(Integration, RopHitRateIsHighForStreamingBenchmark) {
  const auto rop = run("libquantum", MemoryMode::kRop, 8'000'000);
  EXPECT_GT(rop.sram_hit_rate, 0.4);
  EXPECT_DOUBLE_EQ(rop.lambda, 1.0);  // steady stream: B>0 => A>0 always
}

TEST(Integration, RopSavesEnergyWhenItSavesTime) {
  const auto base = run("libquantum", MemoryMode::kBaseline, 8'000'000);
  const auto rop = run("libquantum", MemoryMode::kRop, 8'000'000);
  ASSERT_GT(rop.ipc(), base.ipc());
  EXPECT_LT(rop.total_energy_mj(), base.total_energy_mj() * 1.005);
}

TEST(Integration, NoRefreshSavesEnergy) {
  const auto base = run("lbm", MemoryMode::kBaseline);
  const auto ideal = run("lbm", MemoryMode::kNoRefresh);
  EXPECT_LT(ideal.total_energy_mj(), base.total_energy_mj());
}

TEST(Integration, MostRefreshesAreNonBlockingForQuietWorkloads) {
  const auto base = run("gobmk", MemoryMode::kBaseline, 2'000'000);
  // Paper Fig. 2: non-intensive benchmarks mostly have non-blocking
  // refreshes (avg 79.3% at the 1x window).
  EXPECT_GT(base.nonblocking_fraction[0], 0.6);
  // Larger examined windows can only catch more blocking refreshes.
  EXPECT_GE(base.nonblocking_fraction[0], base.nonblocking_fraction[1]);
  EXPECT_GE(base.nonblocking_fraction[1], base.nonblocking_fraction[2]);
}

TEST(Integration, BlockedRequestCountsAreSmall) {
  const auto base = run("libquantum", MemoryMode::kBaseline);
  // Paper Fig. 3: each blocking refresh blocks only a handful of requests
  // (their maximum over all benchmarks was 12; our MLP bound is similar).
  EXPECT_GT(base.mean_blocked_per_blocking_refresh[0], 0.0);
  EXPECT_LT(base.mean_blocked_per_blocking_refresh[0], 40.0);
}

TEST(Integration, RankPartitionNotWorseOnMix) {
  ExperimentSpec base = multi_core_spec(2, MemoryMode::kBaseline, false);
  ExperimentSpec rp = multi_core_spec(2, MemoryMode::kBaseline, true);
  base.instructions_per_core = 800'000;
  rp.instructions_per_core = 800'000;
  const auto rb = run_experiment(base);
  const auto rrp = run_experiment(rp);
  double sum_b = 0, sum_rp = 0;
  for (const auto& c : rb.run.cores) sum_b += c.ipc;
  for (const auto& c : rrp.run.cores) sum_rp += c.ipc;
  EXPECT_GT(sum_rp, sum_b * 0.97);
}

TEST(Integration, FourCoreRopAtLeastMatchesBaselineRp) {
  ExperimentSpec rp = multi_core_spec(1, MemoryMode::kBaseline, true);
  ExperimentSpec rop = multi_core_spec(1, MemoryMode::kRop, true);
  rp.instructions_per_core = 2'000'000;
  rop.instructions_per_core = 2'000'000;
  rop.rop.training_refreshes = 10;
  const auto a = run_experiment(rp);
  const auto b = run_experiment(rop);
  double sum_rp = 0, sum_rop = 0;
  for (const auto& c : a.run.cores) sum_rp += c.ipc;
  for (const auto& c : b.run.cores) sum_rop += c.ipc;
  EXPECT_GT(sum_rop, sum_rp * 0.98);
}

TEST(Integration, WindowMultiplesProduceConsistentLambdaBeta) {
  // Table I property: lambda/beta are largely insensitive to the window
  // length for steady streams.
  for (const std::uint32_t mult : {1u, 2u, 4u}) {
    ExperimentSpec spec = single_core_spec("libquantum", MemoryMode::kRop);
    spec.instructions_per_core = 3'000'000;
    spec.rop.training_refreshes = 10;
    spec.rop.window_multiple = mult;
    const auto res = run_experiment(spec);
    EXPECT_DOUBLE_EQ(res.lambda, 1.0) << "window multiple " << mult;
  }
}

}  // namespace
}  // namespace rop::sim
