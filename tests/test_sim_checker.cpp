// SimChecker tests: the invariant auditor must stay silent on correct
// simulations across every refresh policy (with and without the ROP
// engine), report injected violations, and hold the end-of-run request
// conservation identities.
#include <gtest/gtest.h>

#include <memory>

#include "check/sim_checker.h"
#include "common/rng.h"
#include "common/snapshot_io.h"
#include "sim/experiment.h"

namespace rop::check {
namespace {

class SimCheckerTest : public ::testing::Test {
 protected:
  mem::MemoryConfig config(mem::RefreshScheme policy,
                           std::uint32_t ranks = 2,
                           std::uint32_t channels = 1) {
    mem::MemoryConfig cfg;
    cfg.timings = dram::make_ddr4_1600_timings();
    cfg.org.ranks = ranks;
    cfg.org.channels = channels;
    cfg.ctrl.refresh = policy;
    if (mem::scheme_info(policy).subarrays > 1) cfg.org.subarrays = 8;
    return cfg;
  }

  /// Drive a randomized read/write mix for `horizon` cycles, then let the
  /// queues drain. Returns the cycle after the drain loop.
  Cycle run_random_load(mem::MemorySystem& mem, std::uint64_t seed,
                        Cycle horizon, Cycle mean_gap) {
    Rng rng(seed);
    Cycle now = 0;
    for (; now < horizon; ++now) {
      if (now % mean_gap == 0) {
        const Address addr = rng.next_below(1u << 22) << kLineShift;
        const auto type = rng.next_bool(0.3) ? mem::ReqType::kWrite
                                             : mem::ReqType::kRead;
        if (mem.can_accept(addr, type)) {
          (void)mem.enqueue(addr, type, 0, now);
        }
      }
      mem.tick(now);
      (void)mem.drain_completed();
    }
    for (; !mem.idle() && now < horizon + 200'000; ++now) {
      mem.tick(now);
      (void)mem.drain_completed();
    }
    return now;
  }
};

TEST_F(SimCheckerTest, CleanRunUnderEveryPolicy) {
  const mem::RefreshScheme policies[] = {
      mem::RefreshScheme::kBaseline, mem::RefreshScheme::kElastic,
      mem::RefreshScheme::kPausing,     mem::RefreshScheme::kRop,
      mem::RefreshScheme::kDarp,        mem::RefreshScheme::kSarp,
      mem::RefreshScheme::kHira};
  for (const auto policy : policies) {
    StatRegistry stats;
    mem::MemorySystem mem(config(policy), &stats);
    SimChecker checker;
    checker.attach(mem);
    const Cycle trefi = mem.config().timings.tREFI;
    run_random_load(mem, 7, 30 * trefi, 11);
    mem.finalize(30 * trefi);
    checker.finalize();
    EXPECT_TRUE(checker.ok())
        << "policy " << static_cast<int>(policy) << "\n"
        << checker.summary();
    EXPECT_GT(checker.ticks_checked(), 0u);
    EXPECT_GT(checker.requests_retired(), 0u);
  }
}

TEST_F(SimCheckerTest, CleanRunWithRopEngineAndBufferCoherence) {
  StatRegistry stats;
  mem::MemorySystem mem(config(mem::RefreshScheme::kRop), &stats);
  engine::RopConfig rc;
  rc.training_refreshes = 5;
  rc.eval_period_refreshes = 10;
  engine::RopEngine eng(rc, mem.controller(0), mem.address_map(), &stats);
  SimChecker checker;
  checker.attach(mem);
  checker.watch(eng);
  const Cycle trefi = mem.config().timings.tREFI;
  // Sequential stream with a write tail chasing the reads: exercises the
  // stale-fill drop and the buffer-vs-write-queue coherence sweep.
  std::uint64_t line = 0;
  Cycle now = 0;
  for (; now < 40 * trefi; ++now) {
    if (now % 12 == 0 && mem.can_accept(line << kLineShift,
                                        mem::ReqType::kRead)) {
      (void)mem.enqueue(line << kLineShift, mem::ReqType::kRead, 0, now);
      ++line;
    }
    if (now % 96 == 0 && line > 4) {
      const Address wb = (line - 4) << kLineShift;
      if (mem.can_accept(wb, mem::ReqType::kWrite)) {
        (void)mem.enqueue(wb, mem::ReqType::kWrite, 0, now);
      }
    }
    mem.tick(now);
    (void)mem.drain_completed();
  }
  checker.finalize();
  EXPECT_TRUE(checker.ok()) << checker.summary();
  EXPECT_GT(stats.counter_value("rop.prefetch_completed"), 0u);
}

// Randomized soak: every refresh policy x ROP on/off x several seeds, with
// multi-rank and multi-channel organizations. Any bookkeeping drift in the
// controller fast paths fails this test.
TEST_F(SimCheckerTest, RandomizedMultiPolicySoak) {
  const mem::RefreshScheme policies[] = {
      mem::RefreshScheme::kBaseline, mem::RefreshScheme::kElastic,
      mem::RefreshScheme::kPausing,     mem::RefreshScheme::kRop,
      mem::RefreshScheme::kDarp,        mem::RefreshScheme::kSarp,
      mem::RefreshScheme::kHira};
  for (const auto policy : policies) {
    for (const bool with_rop : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const std::uint32_t channels = seed == 3 ? 2 : 1;
        StatRegistry stats;
        mem::MemorySystem mem(config(policy, 2, channels), &stats);
        std::vector<std::unique_ptr<engine::RopEngine>> engines;
        SimChecker checker;
        checker.attach(mem);
        if (with_rop) {
          engine::RopConfig rc;
          rc.training_refreshes = 4;
          rc.eval_period_refreshes = 8;
          for (ChannelId ch = 0; ch < mem.num_channels(); ++ch) {
            engines.push_back(std::make_unique<engine::RopEngine>(
                rc, mem.controller(ch), mem.address_map(), &stats));
            checker.watch(*engines.back());
          }
        }
        const Cycle trefi = mem.config().timings.tREFI;
        run_random_load(mem, seed * 1337, 20 * trefi,
                        3 + (seed % 3) * 7);
        checker.finalize();
        EXPECT_TRUE(checker.ok())
            << "policy " << static_cast<int>(policy) << " rop " << with_rop
            << " seed " << seed << "\n"
            << checker.summary();
      }
    }
  }
}

// The controller's FR-FCFS candidate table is never serialized, so a
// snapshot load must force a rescan even when every input the table is
// keyed on happens to match. Here two memories have issued no command and
// differ only in the bank their one queued read targets: a table kept
// across the load would pick for the wrong bank, which the per-tick
// scheduler audit reports.
TEST_F(SimCheckerTest, SnapshotLoadInvalidatesSchedulerTable) {
  const mem::MemoryConfig cfg = config(mem::RefreshScheme::kBaseline, 1);
  StatRegistry stats_loaded;
  StatRegistry stats_source;
  mem::MemorySystem loaded(cfg, &stats_loaded);
  mem::MemorySystem source(cfg, &stats_source);
  SimChecker checker;
  checker.attach(loaded);

  const Address addr = 0;
  Address other = kLineBytes;
  while (source.address_map().map(other).bank ==
         loaded.address_map().map(addr).bank) {
    other += kLineBytes;
  }
  ASSERT_TRUE(loaded.enqueue(addr, mem::ReqType::kRead, 0, 0).has_value());
  ASSERT_TRUE(source.enqueue(other, mem::ReqType::kRead, 0, 0).has_value());
  // Scan `loaded`'s table without issuing anything.
  (void)loaded.controller(0).next_event_cycle(0);

  snap::Writer w;
  w.field(source);
  snap::Reader r(w.buffer());
  r.field(loaded);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.at_end());

  // From here on `loaded` must replay `source` command for command.
  std::vector<std::pair<RequestId, Cycle>> got;
  std::vector<std::pair<RequestId, Cycle>> want;
  for (Cycle now = 0; now < 200; ++now) {
    loaded.tick(now);
    source.tick(now);
    for (const auto& req : loaded.drain_completed()) {
      got.emplace_back(req.id, req.completion);
    }
    for (const auto& req : source.drain_completed()) {
      want.emplace_back(req.id, req.completion);
    }
  }
  ASSERT_EQ(want.size(), 1u);
  EXPECT_EQ(got, want);
  const auto& ev = loaded.controller(0).channel().events();
  EXPECT_EQ(ev.activates, source.controller(0).channel().events().activates);
  EXPECT_EQ(ev.reads, source.controller(0).channel().events().reads);
  EXPECT_TRUE(checker.ok()) << checker.summary();
}

TEST_F(SimCheckerTest, ReportsRetiredRequestWithCompletionBeforeArrival) {
  SimChecker checker;
  mem::Request bad;
  bad.id = 42;
  bad.arrival = 100;
  bad.completion = 50;
  checker.on_retired(bad);
  EXPECT_FALSE(checker.ok());
  EXPECT_EQ(checker.violation_count(), 1u);
  ASSERT_EQ(checker.reports().size(), 1u);
  EXPECT_NE(checker.reports()[0].find("completion"), std::string::npos);
  EXPECT_NE(checker.summary().find("FAILED"), std::string::npos);
}

TEST_F(SimCheckerTest, ReportsRefreshBlockingMissingFromThePerCauseLedger) {
  // One blocked cycle charged to the aggregate but to no read: the
  // refresh-blocking identity of the conservation audit must catch it.
  StatRegistry stats;
  mem::MemorySystem mem(config(mem::RefreshScheme::kPausing), &stats);
  SimChecker checker;
  checker.attach(mem);
  const Cycle trefi = mem.config().timings.tREFI;
  run_random_load(mem, 5, 10 * trefi, 5);
  ASSERT_GT(stats.counter_value("mem.refresh_blocked_cycles"), 0u);
  ASSERT_TRUE(checker.ok()) << checker.summary();
  stats.counter("mem.refresh_blocked_cycles").inc();
  checker.finalize();
  EXPECT_EQ(checker.violation_count(), 1u);
  ASSERT_EQ(checker.reports().size(), 1u);
  EXPECT_NE(checker.reports()[0].find("[conservation] refresh blocking"),
            std::string::npos)
      << checker.reports()[0];
}

TEST_F(SimCheckerTest, ExperimentWiringRunsCheckedEndToEnd) {
  for (const auto mode : {sim::MemoryMode::kBaseline, sim::MemoryMode::kRop,
                          sim::MemoryMode::kPausing, sim::MemoryMode::kDarp,
                          sim::MemoryMode::kSarp, sim::MemoryMode::kHira}) {
    sim::ExperimentSpec spec = sim::single_core_spec("libquantum", mode);
    spec.instructions_per_core = 150'000;
    spec.check = true;
    const auto result = sim::run_experiment(spec);
    EXPECT_GT(result.checker_ticks, 0u)
        << "mode " << static_cast<int>(mode);
    EXPECT_EQ(result.checker_violations, 0u);
  }
}

TEST_F(SimCheckerTest, EventCoreSoakStaysCleanUnderEveryPolicy) {
  // The event-driven clock only executes ticks it can prove are not
  // no-ops; every executed tick still passes the full per-tick audit
  // (queue counters, drain bookkeeping, refresh deadlines, buffer
  // coherence), and the aggregate stats match the naive loop exactly.
  // Multi-core contention plus rank partitioning exercises multi-rank
  // refresh scheduling inside skip spans.
  for (const auto mode :
       {sim::MemoryMode::kBaseline, sim::MemoryMode::kNoRefresh,
        sim::MemoryMode::kRop, sim::MemoryMode::kElastic,
        sim::MemoryMode::kPausing, sim::MemoryMode::kPerBank,
        sim::MemoryMode::kDarp, sim::MemoryMode::kSarp,
        sim::MemoryMode::kHira}) {
    SCOPED_TRACE(testing::Message() << "mode=" << static_cast<int>(mode));
    sim::ExperimentSpec naive =
        sim::multi_core_spec(1, mode, /*rank_partition=*/true);
    naive.instructions_per_core = 100'000;
    naive.check = true;
    naive.loop = cpu::LoopMode::kNaive;
    const auto naive_result = sim::run_experiment(naive);
    EXPECT_EQ(naive_result.checker_violations, 0u);
    sim::ExperimentSpec fast = naive;
    fast.loop = cpu::LoopMode::kEventDriven;
    const auto fast_result = sim::run_experiment(fast);
    EXPECT_GT(fast_result.checker_ticks, 0u);
    EXPECT_EQ(fast_result.checker_violations, 0u);
    // The event loop must audit *fewer* ticks (that is the whole point)
    // while producing identical simulation results.
    EXPECT_LT(fast_result.checker_ticks, naive_result.checker_ticks);
    EXPECT_EQ(fast_result.stats.report(), naive_result.stats.report());
  }
}

}  // namespace
}  // namespace rop::check
