// Full-system tests: clock coupling, relocation, rank partitioning,
// multi-core runs.
#include <gtest/gtest.h>

#include "cpu/system.h"
#include "workload/synthetic.h"

namespace rop::cpu {
namespace {

mem::MemoryConfig mem_config(std::uint32_t ranks, bool refresh = true) {
  mem::MemoryConfig cfg;
  cfg.timings = dram::make_ddr4_1600_timings();
  cfg.org.ranks = ranks;
  cfg.ctrl.refresh_enabled = refresh;
  return cfg;
}

SystemConfig sys_config(bool rank_partition = false) {
  SystemConfig cfg;
  cfg.cpu_ratio = 4;
  cfg.core.critical_load_fraction = 0.3;
  cfg.llc.size_bytes = 1ull << 20;
  cfg.rank_partition = rank_partition;
  return cfg;
}

workload::SyntheticConfig stream_workload(std::uint64_t seed) {
  workload::SyntheticConfig wc;
  wc.mean_gap = 100;
  wc.footprint_lines = 1 << 18;  // 16 MB, well beyond the LLC
  wc.streams = {{{+1}, 1.0}};
  wc.random_fraction = 0.0;
  wc.write_fraction = 0.2;
  wc.seed = seed;
  return wc;
}

TEST(System, SingleCoreRunReachesTarget) {
  StatRegistry stats;
  mem::MemorySystem memory(mem_config(1), &stats);
  workload::SyntheticTrace trace(stream_workload(1));
  std::vector<workload::TraceSource*> traces{&trace};
  System sys(sys_config(), memory, traces);
  const RunResult res = sys.run(100'000, 10'000'000);
  EXPECT_FALSE(res.hit_cycle_limit);
  ASSERT_EQ(res.cores.size(), 1u);
  EXPECT_GE(res.cores[0].instructions, 100'000u);
  EXPECT_GT(res.cores[0].ipc, 0.0);
  EXPECT_LE(res.cores[0].ipc, 4.0);
  EXPECT_EQ(res.mem_cycles, res.cpu_cycles / 4);
}

TEST(System, DeterministicAcrossRuns) {
  auto run_once = [] {
    StatRegistry stats;
    mem::MemorySystem memory(mem_config(1), &stats);
    workload::SyntheticTrace trace(stream_workload(7));
    std::vector<workload::TraceSource*> traces{&trace};
    System sys(sys_config(), memory, traces);
    return sys.run(50'000, 10'000'000);
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_EQ(a.cpu_cycles, b.cpu_cycles);
  EXPECT_DOUBLE_EQ(a.cores[0].ipc, b.cores[0].ipc);
  EXPECT_EQ(a.cores[0].mem_reads, b.cores[0].mem_reads);
}

TEST(System, CycleLimitReportsTruthfully) {
  StatRegistry stats;
  mem::MemorySystem memory(mem_config(1), &stats);
  workload::SyntheticTrace trace(stream_workload(3));
  std::vector<workload::TraceSource*> traces{&trace};
  System sys(sys_config(), memory, traces);
  const RunResult res = sys.run(100'000'000, 10'000);  // unreachable target
  EXPECT_TRUE(res.hit_cycle_limit);
  EXPECT_EQ(res.cpu_cycles, 10'000u);
}

TEST(System, RankPartitioningConfinesCoreTraffic) {
  StatRegistry stats;
  mem::MemorySystem memory(mem_config(4, false), &stats);
  workload::SyntheticTrace t0(stream_workload(1));
  workload::SyntheticTrace t1(stream_workload(2));
  workload::SyntheticTrace t2(stream_workload(3));
  workload::SyntheticTrace t3(stream_workload(4));
  std::vector<workload::TraceSource*> traces{&t0, &t1, &t2, &t3};
  System sys(sys_config(true), memory, traces);
  sys.run(20'000, 10'000'000);
  // With partitioning every core's rank is core % 4; verify via the
  // public relocation path: issue through the port and inspect mapping.
  for (CoreId c = 0; c < 4; ++c) {
    // The system's address map should place this core's addresses in its
    // home rank. Probe a few local addresses via relocation effects:
    // all commands the run issued kept per-rank accounting; at least the
    // rank of core c must have seen activity.
    const auto& act = memory.controller(0).channel().rank(c).activity();
    EXPECT_GT(act.active_cycles, 0u) << "rank " << c;
  }
}

TEST(System, FlatLayoutKeepsCoreRegionsDisjoint) {
  StatRegistry stats;
  mem::MemorySystem memory(mem_config(2, false), &stats);
  workload::SyntheticTrace t0(stream_workload(1));
  workload::SyntheticTrace t1(stream_workload(1));  // identical workloads
  std::vector<workload::TraceSource*> traces{&t0, &t1};
  SystemConfig cfg = sys_config(false);
  cfg.shared_llc = false;  // private LLCs: the cores behave symmetrically
  System sys(cfg, memory, traces);
  const RunResult res = sys.run(20'000, 10'000'000);
  // Identical traces but disjoint regions: both cores make progress and
  // generate their own misses (no accidental sharing through the LLC).
  EXPECT_GT(res.cores[0].mem_reads, 0u);
  EXPECT_GT(res.cores[1].mem_reads, 0u);
  const double ratio = static_cast<double>(res.cores[0].mem_reads) /
                       static_cast<double>(res.cores[1].mem_reads);
  EXPECT_NEAR(ratio, 1.0, 0.2);
}

TEST(System, SharedLlcIsUsedByAllCores) {
  StatRegistry stats;
  mem::MemorySystem memory(mem_config(2, false), &stats);
  workload::SyntheticTrace t0(stream_workload(5));
  workload::SyntheticTrace t1(stream_workload(6));
  std::vector<workload::TraceSource*> traces{&t0, &t1};
  SystemConfig cfg = sys_config(false);
  cfg.shared_llc = true;
  System sys(cfg, memory, traces);
  sys.run(20'000, 10'000'000);
  EXPECT_GT(sys.shared_llc().stats().accesses, 0u);
  EXPECT_EQ(sys.llc_misses(), sys.shared_llc().stats().misses);
  EXPECT_EQ(&sys.core(0).llc(), &sys.shared_llc());
  EXPECT_EQ(&sys.core(1).llc(), &sys.shared_llc());
}

TEST(System, LlcMissesCountTheSingleCoreLlc) {
  // One core: there is no shared LLC, so the misses are the core's own.
  StatRegistry stats;
  mem::MemorySystem memory(mem_config(1), &stats);
  workload::SyntheticTrace trace(stream_workload(9));
  std::vector<workload::TraceSource*> traces{&trace};
  System sys(sys_config(), memory, traces);
  sys.begin_run(10'000'000, 100'000'000);
  EXPECT_EQ(sys.llc_misses(), 0u);
  sys.functional_window(100'000, 200);
  EXPECT_GT(sys.llc_misses(), 0u);
  EXPECT_EQ(sys.llc_misses(), sys.core(0).llc().stats().misses);
}

TEST(System, LlcMissesSumPrivateLlcsOfAMix) {
  StatRegistry stats;
  mem::MemorySystem memory(mem_config(2, false), &stats);
  workload::SyntheticTrace t0(stream_workload(1));
  workload::SyntheticTrace t1(stream_workload(2));
  std::vector<workload::TraceSource*> traces{&t0, &t1};
  SystemConfig cfg = sys_config(false);
  cfg.shared_llc = false;
  System sys(cfg, memory, traces);
  sys.run(20'000, 10'000'000);
  const std::uint64_t m0 = sys.core(0).llc().stats().misses;
  const std::uint64_t m1 = sys.core(1).llc().stats().misses;
  EXPECT_GT(m0, 0u);
  EXPECT_GT(m1, 0u);
  EXPECT_EQ(sys.llc_misses(), m0 + m1);
}

TEST(System, NoRefreshNeverSlowerThanBaseline) {
  auto run_mode = [](bool refresh) {
    StatRegistry stats;
    mem::MemorySystem memory(mem_config(1, refresh), &stats);
    workload::SyntheticConfig wc = stream_workload(11);
    wc.mean_gap = 150;
    workload::SyntheticTrace trace(wc);
    std::vector<workload::TraceSource*> traces{&trace};
    System sys(sys_config(), memory, traces);
    return sys.run(300'000, 100'000'000).cores[0].ipc;
  };
  const double with_refresh = run_mode(true);
  const double without_refresh = run_mode(false);
  EXPECT_GT(without_refresh, with_refresh);
}

}  // namespace
}  // namespace rop::cpu
