// MemorySystem facade tests.
#include <gtest/gtest.h>

#include "mem/memory_system.h"

namespace rop::mem {
namespace {

MemoryConfig small_config(bool refresh = true) {
  MemoryConfig cfg;
  cfg.timings = dram::make_ddr4_1600_timings();
  cfg.org.channels = 1;
  cfg.org.ranks = 2;
  cfg.org.banks = 8;
  cfg.ctrl.refresh =
      refresh ? RefreshScheme::kBaseline : RefreshScheme::kNoRefresh;
  return cfg;
}

TEST(MemorySystem, EnqueueDecomposesAddress) {
  StatRegistry stats;
  MemorySystem mem(small_config(false), &stats);
  const Address addr = 0x123450;
  const auto id = mem.enqueue(addr, ReqType::kRead, 0, 0);
  ASSERT_TRUE(id.has_value());
  EXPECT_GT(*id, 0u);
  EXPECT_FALSE(mem.idle());
}

TEST(MemorySystem, CompletionRoundTrip) {
  StatRegistry stats;
  MemorySystem mem(small_config(false), &stats);
  ASSERT_TRUE(mem.enqueue(0x40, ReqType::kRead, 3, 0).has_value());
  std::vector<Request> done;
  for (Cycle now = 0; now < 500 && done.empty(); ++now) {
    mem.tick(now);
    auto d = mem.drain_completed();
    done.insert(done.end(), d.begin(), d.end());
  }
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].core, 3u);
  EXPECT_EQ(done[0].line_addr, 0x40u);
  EXPECT_TRUE(mem.idle());
}

TEST(MemorySystem, LineAddressCanonicalized) {
  StatRegistry stats;
  MemorySystem mem(small_config(false), &stats);
  ASSERT_TRUE(mem.enqueue(0x47, ReqType::kRead, 0, 0).has_value());
  std::vector<Request> done;
  for (Cycle now = 0; now < 500 && done.empty(); ++now) {
    mem.tick(now);
    auto d = mem.drain_completed();
    done.insert(done.end(), d.begin(), d.end());
  }
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].line_addr, 0x40u);
}

TEST(MemorySystem, IdsAreUniqueAndMonotonic) {
  StatRegistry stats;
  MemorySystem mem(small_config(false), &stats);
  RequestId prev = 0;
  for (int i = 0; i < 10; ++i) {
    const auto id = mem.enqueue(static_cast<Address>(i) << kLineShift,
                                ReqType::kWrite, 0, 0);
    ASSERT_TRUE(id.has_value());
    EXPECT_GT(*id, prev);
    prev = *id;
  }
}

TEST(MemorySystem, RefreshesBothRanksStaggered) {
  StatRegistry stats;
  MemorySystem mem(small_config(true), &stats);
  const Cycle trefi = mem.config().timings.tREFI;
  for (Cycle now = 0; now < 3 * trefi; ++now) mem.tick(now);
  const auto& rm = mem.controller(0).refresh_manager();
  EXPECT_GE(rm.issued(0), 2u);
  EXPECT_GE(rm.issued(1), 2u);
  EXPECT_EQ(stats.counter_value("mem.refreshes"), rm.issued(0) + rm.issued(1));
}

TEST(MemorySystem, FinalizeSettlesActivity) {
  StatRegistry stats;
  MemorySystem mem(small_config(false), &stats);
  for (Cycle now = 0; now < 100; ++now) mem.tick(now);
  mem.finalize(1000);
  const auto& act = mem.controller(0).channel().rank(0).activity();
  EXPECT_EQ(act.active_cycles + act.precharged_cycles + act.refresh_cycles,
            1000u);
}

TEST(MemorySystem, RejectsWhenQueueFull) {
  MemoryConfig cfg = small_config(false);
  cfg.ctrl.sched.read_queue_capacity = 2;
  StatRegistry stats;
  MemorySystem mem(cfg, &stats);
  // Same channel (only one), distinct lines -> no forwarding.
  EXPECT_TRUE(mem.enqueue(0x0, ReqType::kRead, 0, 0).has_value());
  EXPECT_TRUE(mem.enqueue(0x40, ReqType::kRead, 0, 0).has_value());
  EXPECT_FALSE(mem.can_accept(0x80, ReqType::kRead));
  EXPECT_FALSE(mem.enqueue(0x80, ReqType::kRead, 0, 0).has_value());
}

}  // namespace
}  // namespace rop::mem
