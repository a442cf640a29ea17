// Multi-channel memory-system tests: the Table III presets use one
// channel, but the substrate supports several; these tests pin down the
// cross-channel behaviour (mapping, independent controllers, completion
// routing, per-channel ROP engines).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "mem/memory_system.h"
#include "rop/rop_engine.h"

namespace rop::mem {
namespace {

MemoryConfig two_channel_config(bool refresh = true) {
  MemoryConfig cfg;
  cfg.timings = dram::make_ddr4_1600_timings();
  cfg.org.channels = 2;
  cfg.org.ranks = 2;
  cfg.ctrl.refresh =
      refresh ? RefreshScheme::kBaseline : RefreshScheme::kNoRefresh;
  return cfg;
}

TEST(MultiChannel, MapSpreadsLinesAcrossChannels) {
  StatRegistry stats;
  MemorySystem mem(two_channel_config(), &stats);
  const auto& map = mem.address_map();
  // Channel is the lowest digit: consecutive lines alternate channels.
  EXPECT_EQ(map.map(0x00).channel, 0u);
  EXPECT_EQ(map.map(0x40).channel, 1u);
  EXPECT_EQ(map.map(0x80).channel, 0u);
  // And round-trips hold.
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const Address a = rng.next_below(map.organization().total_lines())
                      << kLineShift;
    EXPECT_EQ(map.unmap(map.map(a)), a);
  }
}

TEST(MultiChannel, RequestsRouteToTheRightController) {
  StatRegistry stats;
  MemorySystem mem(two_channel_config(false), &stats);
  ASSERT_TRUE(mem.enqueue(0x00, ReqType::kRead, 0, 0).has_value());  // ch 0
  ASSERT_TRUE(mem.enqueue(0x40, ReqType::kRead, 0, 0).has_value());  // ch 1
  EXPECT_EQ(mem.controller(0).read_queue_depth(), 1u);
  EXPECT_EQ(mem.controller(1).read_queue_depth(), 1u);
  std::uint64_t completed = 0;
  for (Cycle now = 0; now < 500 && completed < 2; ++now) {
    mem.tick(now);
    completed += mem.drain_completed().size();
  }
  EXPECT_EQ(completed, 2u);
}

TEST(MultiChannel, ChannelsRefreshIndependently) {
  StatRegistry stats;
  MemorySystem mem(two_channel_config(), &stats);
  const Cycle trefi = mem.config().timings.tREFI;
  for (Cycle now = 0; now < 3 * trefi; ++now) mem.tick(now);
  for (ChannelId ch = 0; ch < 2; ++ch) {
    for (RankId r = 0; r < 2; ++r) {
      EXPECT_GE(mem.controller(ch).refresh_manager().issued(r), 2u)
          << "channel " << ch << " rank " << r;
    }
  }
}

TEST(MultiChannel, ConservationUnderRandomLoad) {
  StatRegistry stats;
  MemorySystem mem(two_channel_config(), &stats);
  Rng rng(31);
  std::uint64_t accepted = 0, completed = 0;
  const Cycle horizon = 4 * mem.config().timings.tREFI;
  for (Cycle now = 0; now < horizon; ++now) {
    if (now % 7 == 0) {
      const Address addr = rng.next_below(1 << 23) << kLineShift;
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

TEST(MultiChannel, PerChannelRopEnginesOperateIndependently) {
  MemoryConfig cfg = two_channel_config();
  cfg.ctrl.refresh = RefreshScheme::kRop;
  StatRegistry stats;
  MemorySystem mem(cfg, &stats);
  engine::RopConfig rc;
  rc.training_refreshes = 5;
  engine::RopEngine eng0(rc, mem.controller(0), mem.address_map(), &stats);
  engine::RopEngine eng1(rc, mem.controller(1), mem.address_map(), &stats);

  // Stream only lines that map to channel 0 (even line numbers).
  std::uint64_t line = 0;
  const Cycle horizon = 25 * cfg.timings.tREFI;
  for (Cycle now = 0; now < horizon; ++now) {
    if (now % 14 == 0) {
      const Address addr = (line << 1) << kLineShift;  // even line -> ch 0
      if (mem.can_accept(addr, ReqType::kRead) &&
          mem.enqueue(addr, ReqType::kRead, 0, now)) {
        ++line;
      }
    }
    mem.tick(now);
    mem.drain_completed();
  }
  // Channel 0's engine trained and prefetched; channel 1 saw no traffic,
  // so its engine stays in training forever (no refresh-window arrivals
  // close training only after enough refreshes — quiet windows do close).
  EXPECT_NE(eng0.state(), engine::RopState::kTraining);
  EXPECT_GT(eng0.buffer().stats().rounds, 0u);
  EXPECT_EQ(eng1.buffer().stats().fills, 0u);
}

}  // namespace
}  // namespace rop::mem
