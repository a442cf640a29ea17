// Controller dynamics under load: write-drain hysteresis, starvation
// freedom, row-hit locality benefits, and urgent-refresh overrides.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "mem/memory_system.h"

namespace rop::mem {
namespace {

class DynamicsTest : public ::testing::Test {
 protected:
  MemoryConfig config() {
    MemoryConfig cfg;
    cfg.timings = dram::make_ddr4_1600_timings();
    cfg.org.ranks = 1;
    // Isolate scheduling behaviour.
    cfg.ctrl.refresh = RefreshScheme::kNoRefresh;
    return cfg;
  }
};

TEST_F(DynamicsTest, WriteDrainEngagesAtHighWatermarkOnly) {
  MemoryConfig cfg = config();
  cfg.ctrl.sched.write_drain_high = 8;
  cfg.ctrl.sched.write_drain_low = 2;
  StatRegistry stats;
  MemorySystem mem(cfg, &stats);
  // Keep a read stream flowing so writes are not issued opportunistically,
  // and feed writes up to the watermark.
  std::uint64_t rline = 0, wline = 1 << 20;
  Cycle now = 0;
  bool seen_drain = false;
  for (; now < 4000; ++now) {
    if (now % 6 == 0) {
      mem.enqueue((rline++) << kLineShift, ReqType::kRead, 0, now);
    }
    if (now % 30 == 0) {
      mem.enqueue((wline++) << kLineShift, ReqType::kWrite, 0, now);
    }
    mem.tick(now);
    mem.drain_completed();
    seen_drain |= stats.counter_value("mem.writes_issued") > 0;
  }
  // Writes eventually retire (drain mode engaged at the watermark).
  EXPECT_TRUE(seen_drain);
  EXPECT_LT(mem.controller(0).write_queue_depth(),
            cfg.ctrl.sched.write_queue_capacity);
}

TEST_F(DynamicsTest, NoReadStarvationUnderRowHitStorm) {
  // One request conflicts with a row that an endless stream keeps hitting;
  // FR-FCFS must still service the conflicting request (the open row is
  // closed once no *queued* request hits it, and queue capacity guarantees
  // that happens).
  StatRegistry stats;
  MemorySystem mem(config(), &stats);
  // Conflicting request: same bank (0), different row.
  const Address conflict = (1ull << 30);  // far row, bank depends on mapping
  const DramCoord cc = mem.address_map().map(conflict);
  ASSERT_TRUE(mem.enqueue(conflict, ReqType::kRead, 0, 0).has_value());
  bool conflict_done = false;
  std::uint64_t issued = 0;
  std::uint64_t hit_line = 0;
  for (Cycle now = 0; now < 50'000 && !conflict_done; ++now) {
    // Storm of row hits to the same bank, row 0.
    if (now % 5 == 0) {
      const DramCoord storm{cc.channel, cc.rank, cc.bank, 0,
                            static_cast<ColumnId>(hit_line % 128)};
      const Address addr = mem.address_map().unmap(storm);
      if (mem.can_accept(addr, ReqType::kRead) &&
          mem.enqueue(addr, ReqType::kRead, 0, now)) {
        ++hit_line;
        ++issued;
      }
    }
    mem.tick(now);
    for (const auto& req : mem.drain_completed()) {
      if (req.line_addr == ((conflict >> kLineShift) << kLineShift)) {
        conflict_done = true;
      }
    }
  }
  EXPECT_TRUE(conflict_done) << "row conflict starved behind " << issued
                             << " row hits";
}

TEST_F(DynamicsTest, RowLocalityImprovesLatency) {
  // Sequential lines within one row complete much faster than a row-miss
  // pattern spread over rows of one bank.
  auto mean_latency = [&](bool sequential) {
    StatRegistry stats;
    MemorySystem mem(config(), &stats);
    std::uint64_t completed = 0;
    const int n = 200;
    for (Cycle now = 0; completed < n && now < 100'000; ++now) {
      const std::uint64_t i = now / 20;
      if (now % 20 == 0 && i < n) {
        // Sequential: consecutive lines (same row). Spread: jump rows
        // within the same bank (every 1024 lines under page interleave).
        const Address addr = sequential ? (i << kLineShift)
                                        : (i * 1024) << kLineShift;
        mem.enqueue(addr, ReqType::kRead, 0, now);
      }
      mem.tick(now);
      completed += mem.drain_completed().size();
    }
    return stats.find_scalar("mem.read_latency")->mean();
  };
  EXPECT_LT(mean_latency(true), mean_latency(false));
}

TEST_F(DynamicsTest, UrgentRefreshPreemptsRopDrain) {
  MemoryConfig cfg = config();
  cfg.ctrl.refresh = RefreshScheme::kRop;
  cfg.ctrl.drain_bound = 100'000'000;  // effectively unbounded drain
  StatRegistry stats;
  MemorySystem mem(cfg, &stats);
  const Cycle trefi = cfg.timings.tREFI;
  // Saturating stream: the drain never naturally empties, so only the
  // JEDEC postponement budget can force refreshes.
  std::uint64_t line = 0;
  const Cycle horizon = (cfg.timings.max_postponed_refreshes + 4) * trefi;
  for (Cycle now = 0; now < horizon; ++now) {
    if (now % 4 == 0 && mem.can_accept(line << kLineShift, ReqType::kRead)) {
      if (mem.enqueue(line << kLineShift, ReqType::kRead, 0, now)) ++line;
    }
    mem.tick(now);
    mem.drain_completed();
  }
  // The budget forces refreshes: the running average cannot fall behind by
  // more than max_postponed.
  EXPECT_GE(mem.controller(0).refresh_manager().issued(0), 3u);
}

TEST_F(DynamicsTest, ReadLatencyBoundedWithoutRefresh) {
  StatRegistry stats;
  MemorySystem mem(config(), &stats);
  Rng rng(5);
  std::uint64_t accepted = 0, completed = 0;
  for (Cycle now = 0; now < 50'000; ++now) {
    if (now % 25 == 0) {
      const Address addr = rng.next_below(1 << 20) << kLineShift;
      if (mem.can_accept(addr, ReqType::kRead) &&
          mem.enqueue(addr, ReqType::kRead, 0, now)) {
        ++accepted;
      }
    }
    mem.tick(now);
    completed += mem.drain_completed().size();
  }
  // Light random load, no refresh: every read finishes in queue + ACT +
  // RD + data time, far below a refresh period.
  EXPECT_GT(completed, 0u);
  EXPECT_LT(stats.find_scalar("mem.read_latency")->max(), 500.0);
}

TEST_F(DynamicsTest, PerRankQueuesIsolateUnderPartitionedTraffic) {
  MemoryConfig cfg = config();
  cfg.org.ranks = 4;
  cfg.ctrl.refresh = RefreshScheme::kBaseline;
  StatRegistry stats;
  MemorySystem mem(cfg, &stats);
  // Traffic only to rank 2's address range (via compose_in_rank).
  std::uint64_t local = 0;
  std::uint64_t completed = 0, accepted = 0;
  const Cycle trefi = cfg.timings.tREFI;
  for (Cycle now = 0; now < 3 * trefi; ++now) {
    if (now % 10 == 0) {
      const Address addr = mem.address_map().compose_in_rank(2, local++);
      if (mem.can_accept(addr, ReqType::kRead) &&
          mem.enqueue(addr, ReqType::kRead, 0, now)) {
        ++accepted;
      }
    }
    mem.tick(now);
    completed += mem.drain_completed().size();
  }
  EXPECT_GT(accepted, 0u);
  // All four ranks still refreshed on cadence even though three are idle.
  for (RankId r = 0; r < 4; ++r) {
    EXPECT_GE(mem.controller(0).refresh_manager().issued(r), 2u);
  }
}

}  // namespace
}  // namespace rop::mem
