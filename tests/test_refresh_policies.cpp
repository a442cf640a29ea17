// Tests for the alternative refresh schemes: Elastic Refresh, Refresh
// Pausing, and per-bank refresh (REFpb).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "mem/memory_system.h"

namespace rop::mem {
namespace {

class RefreshPolicyTest : public ::testing::Test {
 protected:
  MemoryConfig config(RefreshScheme scheme) {
    MemoryConfig cfg;
    cfg.timings = dram::make_ddr4_1600_timings();
    cfg.org.ranks = 1;
    cfg.ctrl.refresh = scheme;
    return cfg;
  }

  /// Run with a steady read stream; returns (completed, mean latency).
  struct Outcome {
    std::uint64_t completed = 0;
    std::uint64_t accepted = 0;
    double mean_latency = 0;
  };
  Outcome run_stream(MemorySystem& mem, StatRegistry& stats, Cycle horizon,
                     Cycle interarrival) {
    Outcome out;
    std::uint64_t line = 0;
    for (Cycle now = 0; now < horizon; ++now) {
      if (now % interarrival == 0 &&
          mem.can_accept(line << kLineShift, ReqType::kRead)) {
        if (mem.enqueue(line << kLineShift, ReqType::kRead, 0, now)) {
          ++out.accepted;
          ++line;
        }
      }
      mem.tick(now);
      out.completed += mem.drain_completed().size();
    }
    for (Cycle now = horizon;
         out.completed < out.accepted && now < horizon + 100'000; ++now) {
      mem.tick(now);
      out.completed += mem.drain_completed().size();
    }
    if (const auto* lat = stats.find_scalar("mem.read_latency")) {
      out.mean_latency = lat->mean();
    }
    return out;
  }
};

TEST_F(RefreshPolicyTest, ElasticMaintainsRefreshAverage) {
  StatRegistry stats;
  MemorySystem mem(config(RefreshScheme::kElastic), &stats);
  const Cycle trefi = mem.config().timings.tREFI;
  const auto out = run_stream(mem, stats, 20 * trefi, 15);
  EXPECT_EQ(out.completed, out.accepted);
  // The running average must hold: ~20 refreshes over 20 tREFI (elastic
  // may briefly lag by up to the postponement budget).
  const auto issued = mem.controller(0).refresh_manager().issued(0);
  EXPECT_GE(issued, 20u - mem.config().timings.max_postponed_refreshes);
  EXPECT_LE(issued, 22u);
}

TEST_F(RefreshPolicyTest, ElasticDefersUnderLoadThenForcedByBudget) {
  StatRegistry stats;
  MemorySystem mem(config(RefreshScheme::kElastic), &stats);
  const Cycle trefi = mem.config().timings.tREFI;
  // Saturating traffic: the rank is never idle, so elastic postpones until
  // the budget forces refreshes.
  std::uint64_t line = 0;
  Cycle first_refresh = 0;
  for (Cycle now = 0; now < 9 * trefi; ++now) {
    if (now % 5 == 0 && mem.can_accept(line << kLineShift, ReqType::kRead)) {
      if (mem.enqueue(line << kLineShift, ReqType::kRead, 0, now)) ++line;
    }
    mem.tick(now);
    mem.drain_completed();
    if (first_refresh == 0 &&
        mem.controller(0).refresh_manager().issued(0) > 0) {
      first_refresh = now;
    }
  }
  // Under constant load, the first refresh lands well after its boundary
  // (deferred) but before the budget would be violated.
  EXPECT_GT(first_refresh, trefi / 2);
  EXPECT_GT(mem.controller(0).refresh_manager().issued(0), 0u);
}

TEST_F(RefreshPolicyTest, PausingCompletesRefreshWorkInSegments) {
  StatRegistry stats;
  MemorySystem mem(config(RefreshScheme::kPausing), &stats);
  const Cycle trefi = mem.config().timings.tREFI;
  const auto out = run_stream(mem, stats, 20 * trefi, 40);
  EXPECT_EQ(out.completed, out.accepted);
  const auto issued = mem.controller(0).refresh_manager().issued(0);
  EXPECT_GE(issued, 18u);
  // Refresh work actually executed in segments.
  EXPECT_GT(mem.controller(0).channel().events().refresh_segments,
            issued);
}

// Regression: the blocking window must be opened exactly once per refresh
// obligation. The old code inferred "first segment" from
// refresh_remaining_ == tRFC, but pause overhead grows refresh_remaining_,
// so with pause_overhead >= pause_quantum a pause restores it to exactly
// tRFC and on_refresh_start re-fired on every resumed segment (hundreds of
// phantom windows per refresh).
TEST_F(RefreshPolicyTest, PausingCountsBlockingWindowOncePerRefresh) {
  StatRegistry stats;
  MemoryConfig cfg = config(RefreshScheme::kPausing);
  cfg.ctrl.pause_quantum = 48;
  cfg.ctrl.pause_overhead = 48;  // each pause undoes one segment of work
  MemorySystem mem(cfg, &stats);
  const Cycle trefi = mem.config().timings.tREFI;
  // A read lands in every inter-segment gap, forcing a pause per segment.
  std::uint64_t line = 0;
  for (Cycle now = 0; now < 10 * trefi; ++now) {
    if (now % 60 == 0 &&
        mem.can_accept(line << kLineShift, ReqType::kRead)) {
      if (mem.enqueue(line << kLineShift, ReqType::kRead, 0, now)) ++line;
    }
    mem.tick(now);
    mem.drain_completed();
  }
  const auto& c = mem.controller(0);
  const auto issued = c.refresh_manager().issued(0);
  EXPECT_GT(stats.counter_value("mem.refresh_pauses"), 0u);
  // One window per completed refresh, plus at most one for a refresh still
  // in progress at the horizon. The old sentinel counted hundreds.
  EXPECT_GE(c.blocking_stats().total_refreshes(), issued);
  EXPECT_LE(c.blocking_stats().total_refreshes(), issued + 1);
}

// Regression companion: demand already pending when the refresh comes due,
// so the pause path runs before the first segment ever issues. The window
// must still be counted exactly once.
TEST_F(RefreshPolicyTest, PausingPauseBeforeFirstSegmentCountsWindowOnce) {
  StatRegistry stats;
  MemorySystem mem(config(RefreshScheme::kPausing), &stats);
  const Cycle trefi = mem.config().timings.tREFI;
  // Back-to-back reads straddling the first boundary keep pending_demand
  // nonzero at due time; afterwards the queue drains and the refresh runs.
  std::uint64_t line = 0;
  for (Cycle now = 0; now < trefi + 2000; ++now) {
    const bool near_boundary = now + 400 >= trefi && now <= trefi + 400;
    if (near_boundary && now % 10 == 0 &&
        mem.can_accept(line << kLineShift, ReqType::kRead)) {
      if (mem.enqueue(line << kLineShift, ReqType::kRead, 0, now)) ++line;
    }
    mem.tick(now);
    mem.drain_completed();
  }
  const auto& c = mem.controller(0);
  EXPECT_EQ(c.refresh_manager().issued(0), 1u);
  EXPECT_EQ(c.blocking_stats().total_refreshes(), 1u);
}

// Regression: under saturating demand, an urgent (budget-exhausted) pausing
// refresh must preempt new demand to its rank. Before the fix, the scheduler
// kept re-activating rows on the starved rank, the forced-full REF could not
// close, and owed refreshes climbed past the JEDEC 8-postponement budget.
TEST_F(RefreshPolicyTest, PausingUrgentRefreshNeverExceedsPostponementBudget) {
  StatRegistry stats;
  MemoryConfig cfg = config(RefreshScheme::kPausing);
  cfg.org.ranks = 2;
  MemorySystem mem(cfg, &stats);
  const Cycle trefi = mem.config().timings.tREFI;
  const auto budget = mem.config().timings.max_postponed_refreshes;
  Rng rng(3 * 1337);
  std::uint32_t max_owed = 0;
  for (Cycle now = 0; now < 20 * trefi; ++now) {
    if (now % 3 == 0) {
      const Address addr = rng.next_below(1u << 22) << kLineShift;
      if (mem.can_accept(addr, ReqType::kRead)) {
        (void)mem.enqueue(addr, ReqType::kRead, 0, now);
      }
    }
    mem.tick(now);
    mem.drain_completed();
    const auto& rm = mem.controller(0).refresh_manager();
    for (RankId r = 0; r < cfg.org.ranks; ++r) {
      max_owed = std::max(max_owed, rm.owed(r, now));
    }
  }
  EXPECT_LE(max_owed, budget);
}

TEST_F(RefreshPolicyTest, PausingImprovesTailLatencyOverAutoRefresh) {
  StatRegistry stats_auto, stats_pause;
  MemorySystem auto_mem(config(RefreshScheme::kBaseline), &stats_auto);
  MemorySystem pause_mem(config(RefreshScheme::kPausing), &stats_pause);
  const Cycle trefi = auto_mem.config().timings.tREFI;
  run_stream(auto_mem, stats_auto, 30 * trefi, 60);
  run_stream(pause_mem, stats_pause, 30 * trefi, 60);
  const double max_auto = stats_auto.find_scalar("mem.read_latency")->max();
  const double max_pause =
      stats_pause.find_scalar("mem.read_latency")->max();
  // A read can wait out a whole tRFC under auto-refresh, but at most a
  // segment (plus service) under pausing.
  EXPECT_LT(max_pause, max_auto);
}

TEST_F(RefreshPolicyTest, PerBankRefreshesEveryBankRoundRobin) {
  StatRegistry stats;
  MemorySystem mem(config(RefreshScheme::kPerBank), &stats);
  const Cycle trefi = mem.config().timings.tREFI;
  for (Cycle now = 0; now < 2 * trefi; ++now) {
    mem.tick(now);
  }
  // 8 bank-refreshes per tREFI: about 16 units over two intervals.
  const auto units = mem.controller(0).refresh_manager().issued(0);
  EXPECT_GE(units, 14u);
  EXPECT_LE(units, 18u);
  EXPECT_EQ(stats.counter_value("mem.bank_refreshes"), units);
  EXPECT_EQ(stats.counter_value("mem.refreshes"), 0u);  // no full REF
}

TEST_F(RefreshPolicyTest, PerBankKeepsOtherBanksAvailable) {
  StatRegistry stats;
  MemorySystem mem(config(RefreshScheme::kPerBank), &stats);
  const Cycle trefi = mem.config().timings.tREFI;
  const auto out = run_stream(mem, stats, 10 * trefi, 25);
  EXPECT_EQ(out.completed, out.accepted);
  // Mean latency under per-bank refresh stays close to refresh-free
  // service because 7 of 8 banks remain usable during each lock.
  EXPECT_LT(out.mean_latency, 80.0);
}

TEST_F(RefreshPolicyTest, PerBankConservesRequestsUnderRandomLoad) {
  StatRegistry stats;
  MemoryConfig cfg = config(RefreshScheme::kPerBank);
  cfg.org.ranks = 2;
  MemorySystem mem(cfg, &stats);
  Rng rng(99);
  std::uint64_t accepted = 0, completed = 0;
  const Cycle horizon = 6 * cfg.timings.tREFI;
  for (Cycle now = 0; now < horizon; ++now) {
    if (now % 9 == 0) {
      const Address addr = rng.next_below(1 << 22) << kLineShift;
      if (mem.can_accept(addr, ReqType::kRead) &&
          mem.enqueue(addr, ReqType::kRead, 0, now)) {
        ++accepted;
      }
    }
    mem.tick(now);
    completed += mem.drain_completed().size();
  }
  for (Cycle now = horizon; completed < accepted && now < horizon + 100'000;
       ++now) {
    mem.tick(now);
    completed += mem.drain_completed().size();
  }
  EXPECT_EQ(completed, accepted);
}

TEST_F(RefreshPolicyTest, AllPoliciesKeepRefreshAverageOverLongRun) {
  for (const RefreshScheme policy :
       {RefreshScheme::kBaseline, RefreshScheme::kElastic,
        RefreshScheme::kPausing, RefreshScheme::kRop}) {
    StatRegistry stats;
    MemorySystem mem(config(policy), &stats);
    const Cycle trefi = mem.config().timings.tREFI;
    run_stream(mem, stats, 40 * trefi, 30);
    const auto issued = mem.controller(0).refresh_manager().issued(0);
    EXPECT_GE(issued, 40u - mem.config().timings.max_postponed_refreshes)
        << "policy " << static_cast<int>(policy);
    EXPECT_LE(issued, 42u) << "policy " << static_cast<int>(policy);
  }
}

// --- DARP / SARP / HiRA (refresh–access parallelism schemes) -----------

TEST_F(RefreshPolicyTest, DarpMaintainsPerBankRefreshAverage) {
  StatRegistry stats;
  MemorySystem mem(config(RefreshScheme::kDarp), &stats);
  const Cycle trefi = mem.config().timings.tREFI;
  const auto out = run_stream(mem, stats, 20 * trefi, 15);
  EXPECT_EQ(out.completed, out.accepted);
  // Bank-granularity obligations: 8 units per tREFI. DARP reorders and
  // postpones but may never fall behind by more than the JEDEC budget.
  const auto units = mem.controller(0).refresh_manager().issued(0);
  EXPECT_GE(units, 20u * 8 - mem.config().timings.max_postponed_refreshes);
  EXPECT_LE(units, 20u * 8 + 8);
  EXPECT_EQ(stats.counter_value("mem.bank_refreshes"), units);
  EXPECT_EQ(stats.counter_value("mem.refreshes"), 0u);  // never a full REF
}

TEST_F(RefreshPolicyTest, SubarrayPoliciesMaintainRefreshAverage) {
  for (const RefreshScheme policy :
       {RefreshScheme::kSarp, RefreshScheme::kHira}) {
    StatRegistry stats;
    MemoryConfig cfg = config(policy);
    cfg.org.subarrays = 8;
    MemorySystem mem(cfg, &stats);
    const Cycle trefi = mem.config().timings.tREFI;
    const auto out = run_stream(mem, stats, 20 * trefi, 15);
    EXPECT_EQ(out.completed, out.accepted)
        << "policy " << static_cast<int>(policy);
    const auto units = mem.controller(0).refresh_manager().issued(0);
    EXPECT_GE(units, 20u * 8 - mem.config().timings.max_postponed_refreshes)
        << "policy " << static_cast<int>(policy);
    EXPECT_LE(units, 20u * 8 + 8) << "policy " << static_cast<int>(policy);
  }
}

TEST_F(RefreshPolicyTest, DarpAndSarpReduceRefreshBlockingVsAutoRefresh) {
  // The acceptance metric: request-cycles queued demand spends behind an
  // in-flight refresh lock. DARP steers REFpb into idle banks, SARP locks
  // 1/8th of a bank — both must beat the all-rank freeze of auto-refresh
  // on a memory-intensive stream.
  const auto blocked = [&](RefreshScheme policy, std::uint32_t subarrays) {
    StatRegistry stats;
    MemoryConfig cfg = config(policy);
    cfg.org.subarrays = subarrays;
    MemorySystem mem(cfg, &stats);
    const Cycle trefi = mem.config().timings.tREFI;
    run_stream(mem, stats, 30 * trefi, 12);
    return stats.counter_value("mem.refresh_blocked_cycles");
  };
  const auto base = blocked(RefreshScheme::kBaseline, 1);
  const auto darp = blocked(RefreshScheme::kDarp, 1);
  const auto sarp = blocked(RefreshScheme::kSarp, 8);
  const auto hira = blocked(RefreshScheme::kHira, 8);
  EXPECT_GT(base, 0u);
  EXPECT_LT(darp, base);
  EXPECT_LT(sarp, base);
  EXPECT_LT(hira, base);
}

TEST_F(RefreshPolicyTest, NewSchemesConserveRequestsUnderRandomLoad) {
  struct Case {
    RefreshScheme policy;
    std::uint32_t subarrays;
  };
  for (const Case c : {Case{RefreshScheme::kDarp, 1},
                       Case{RefreshScheme::kSarp, 8},
                       Case{RefreshScheme::kHira, 8}}) {
    StatRegistry stats;
    MemoryConfig cfg = config(c.policy);
    cfg.org.ranks = 2;
    cfg.org.subarrays = c.subarrays;
    MemorySystem mem(cfg, &stats);
    Rng rng(417);
    std::uint64_t accepted = 0, completed = 0;
    const Cycle horizon = 6 * cfg.timings.tREFI;
    for (Cycle now = 0; now < horizon; ++now) {
      if (now % 7 == 0) {
        const Address addr = rng.next_below(1 << 22) << kLineShift;
        if (mem.can_accept(addr, ReqType::kRead) &&
            mem.enqueue(addr, ReqType::kRead, 0, now)) {
          ++accepted;
        }
      }
      mem.tick(now);
      completed += mem.drain_completed().size();
    }
    for (Cycle now = horizon;
         completed < accepted && now < horizon + 100'000; ++now) {
      mem.tick(now);
      completed += mem.drain_completed().size();
    }
    EXPECT_EQ(completed, accepted)
        << "policy " << static_cast<int>(c.policy);
  }
}

TEST_F(RefreshPolicyTest, DarpNeverExceedsPostponementBudgetUnderSaturation) {
  StatRegistry stats;
  MemoryConfig cfg = config(RefreshScheme::kDarp);
  cfg.org.ranks = 2;
  MemorySystem mem(cfg, &stats);
  const Cycle trefi = mem.config().timings.tREFI;
  const auto budget = mem.config().timings.max_postponed_refreshes;
  Rng rng(1337);
  std::uint32_t max_owed = 0;
  for (Cycle now = 0; now < 20 * trefi; ++now) {
    if (now % 3 == 0) {
      const Address addr = rng.next_below(1u << 22) << kLineShift;
      if (mem.can_accept(addr, ReqType::kRead)) {
        (void)mem.enqueue(addr, ReqType::kRead, 0, now);
      }
    }
    mem.tick(now);
    mem.drain_completed();
    const auto& rm = mem.controller(0).refresh_manager();
    for (RankId r = 0; r < cfg.org.ranks; ++r) {
      max_owed = std::max(max_owed, rm.owed(r, now));
    }
  }
  EXPECT_LE(max_owed, budget);
}

}  // namespace
}  // namespace rop::mem
