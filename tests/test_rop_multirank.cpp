// ROP engine behaviour on multi-rank memories: buffer ownership handoff,
// staggered refreshes, rank partitioning interplay, and coherence across
// ranks.
#include <gtest/gtest.h>

#include "mem/memory_system.h"
#include "rop/rop_engine.h"

namespace rop::engine {
namespace {

class MultiRankTest : public ::testing::Test {
 protected:
  mem::MemoryConfig config(std::uint32_t ranks) {
    mem::MemoryConfig cfg;
    cfg.timings = dram::make_ddr4_1600_timings();
    cfg.org.ranks = ranks;
    cfg.ctrl.refresh = mem::RefreshScheme::kRop;
    return cfg;
  }

  RopConfig rop_config() {
    RopConfig rc;
    rc.training_refreshes = 5;
    rc.eval_period_refreshes = 20;
    return rc;
  }

  /// Streams to every rank via compose_in_rank, round-robin.
  void run_all_ranks(mem::MemorySystem& mem, Cycle horizon,
                     Cycle interarrival) {
    std::vector<std::uint64_t> cursors(
        mem.config().org.ranks, 0);
    RankId next = 0;
    for (Cycle now = 0; now < horizon; ++now) {
      if (now % interarrival == 0) {
        const Address addr =
            mem.address_map().compose_in_rank(next, cursors[next]++);
        if (mem.can_accept(addr, mem::ReqType::kRead)) {
          (void)mem.enqueue(addr, mem::ReqType::kRead, 0, now);
        }
        next = (next + 1) % mem.config().org.ranks;
      }
      mem.tick(now);
      mem.drain_completed();
    }
  }
};

TEST_F(MultiRankTest, BufferOwnershipRotatesAcrossRanks) {
  StatRegistry stats;
  mem::MemorySystem mem(config(4), &stats);
  RopEngine engine(rop_config(), mem.controller(0), mem.address_map(),
                   &stats);
  const Cycle trefi = mem.config().timings.tREFI;
  run_all_ranks(mem, 30 * trefi, 8);
  // With staggered refreshes on 4 ranks and traffic to all of them, the
  // buffer must have been owned by more than one rank over the run.
  EXPECT_GT(engine.buffer().stats().rounds, 8u);
  // All ranks were refreshed on cadence.
  for (RankId r = 0; r < 4; ++r) {
    EXPECT_GE(mem.controller(0).refresh_manager().issued(r), 25u);
  }
}

TEST_F(MultiRankTest, StaggeredRefreshesNeverOverlapAtModerateLoad) {
  StatRegistry stats;
  mem::MemorySystem mem(config(4), &stats);
  RopEngine engine(rop_config(), mem.controller(0), mem.address_map(),
                   &stats);
  const Cycle trefi = mem.config().timings.tREFI;
  std::vector<std::uint64_t> cursors(4, 0);
  RankId next = 0;
  std::uint64_t overlap_cycles = 0;
  for (Cycle now = 0; now < 20 * trefi; ++now) {
    if (now % 16 == 0) {
      const Address addr =
          mem.address_map().compose_in_rank(next, cursors[next]++);
      if (mem.can_accept(addr, mem::ReqType::kRead)) {
        (void)mem.enqueue(addr, mem::ReqType::kRead, 0, now);
      }
      next = (next + 1) % 4;
    }
    mem.tick(now);
    mem.drain_completed();
    int refreshing = 0;
    for (RankId r = 0; r < 4; ++r) {
      refreshing += mem.controller(0).rank_refreshing(r) ? 1 : 0;
    }
    if (refreshing > 1) ++overlap_cycles;
  }
  // tREFI/4 stagger with tRFC = 280: refreshes of different ranks should
  // essentially never overlap unless drains push them together; allow a
  // tiny tolerance for postponement collisions.
  EXPECT_LT(overlap_cycles, 20 * trefi / 100);
}

TEST_F(MultiRankTest, PerRankTablesStayIsolated) {
  StatRegistry stats;
  mem::MemorySystem mem(config(2), &stats);
  RopEngine engine(rop_config(), mem.controller(0), mem.address_map(),
                   &stats);
  const Cycle trefi = mem.config().timings.tREFI;
  // Traffic only to rank 0: rank 1's prediction table must stay empty.
  std::uint64_t cursor = 0;
  for (Cycle now = 0; now < 10 * trefi; ++now) {
    if (now % 12 == 0) {
      const Address addr = mem.address_map().compose_in_rank(0, cursor++);
      if (mem.can_accept(addr, mem::ReqType::kRead)) {
        (void)mem.enqueue(addr, mem::ReqType::kRead, 0, now);
      }
    }
    mem.tick(now);
    mem.drain_completed();
  }
  EXPECT_GT(engine.prefetcher().table(0).total_weight(), 0u);
  EXPECT_EQ(engine.prefetcher().table(1).total_weight(), 0u);
}

TEST_F(MultiRankTest, QuietRanksSkipRoundsWhileBusyRankPrefetches) {
  StatRegistry stats;
  mem::MemorySystem mem(config(2), &stats);
  RopEngine engine(rop_config(), mem.controller(0), mem.address_map(),
                   &stats);
  const Cycle trefi = mem.config().timings.tREFI;
  std::uint64_t cursor = 0;
  for (Cycle now = 0; now < 40 * trefi; ++now) {
    if (now % 14 == 0) {
      const Address addr = mem.address_map().compose_in_rank(0, cursor++);
      if (mem.can_accept(addr, mem::ReqType::kRead)) {
        (void)mem.enqueue(addr, mem::ReqType::kRead, 0, now);
      }
    }
    mem.tick(now);
    mem.drain_completed();
  }
  // Rank 0 prefetches; rank 1 is quiet, so beta-gating skips its rounds.
  EXPECT_GT(stats.counter_value("rop.decisions_prefetch"), 10u);
  EXPECT_GT(stats.counter_value("rop.decisions_skip"), 10u);
}

TEST_F(MultiRankTest, FourRankStreamStillGetsBufferHits) {
  StatRegistry stats;
  mem::MemorySystem mem(config(4), &stats);
  RopEngine engine(rop_config(), mem.controller(0), mem.address_map(),
                   &stats);
  const Cycle trefi = mem.config().timings.tREFI;
  // One strong stream confined to rank 2 (the rank-partitioned picture).
  std::uint64_t cursor = 0;
  std::uint64_t sram_served = 0;
  for (Cycle now = 0; now < 40 * trefi; ++now) {
    if (now % 13 == 0) {
      const Address addr = mem.address_map().compose_in_rank(2, cursor++);
      if (mem.can_accept(addr, mem::ReqType::kRead)) {
        (void)mem.enqueue(addr, mem::ReqType::kRead, 0, now);
      }
    }
    mem.tick(now);
    for (const auto& req : mem.drain_completed()) {
      if (req.serviced_by == mem::ServicedBy::kSramBuffer) ++sram_served;
    }
  }
  EXPECT_GT(sram_served, 0u);
  EXPECT_GT(engine.overall_hit_rate(), 0.2);
}

}  // namespace
}  // namespace rop::engine
