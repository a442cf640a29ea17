// Rank-scope timing tests: tRRD, tFAW, tCCD, write-to-read turnaround,
// refresh lockout, and activity accounting for the power model.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>

#include "common/rng.h"
#include "common/snapshot_io.h"
#include "dram/rank.h"

namespace rop::dram {
namespace {

Command act(RankId r, BankId b, RowId row) {
  return Command{CmdType::kActivate, DramCoord{0, r, b, row, 0}, 0};
}
Command rd(RankId r, BankId b, RowId row, ColumnId col) {
  return Command{CmdType::kRead, DramCoord{0, r, b, row, col}, 0};
}
Command wr(RankId r, BankId b, RowId row, ColumnId col) {
  return Command{CmdType::kWrite, DramCoord{0, r, b, row, col}, 0};
}
Command pre(RankId r, BankId b) {
  return Command{CmdType::kPrecharge, DramCoord{0, r, b, 0, 0}, 0};
}
Command ref(RankId r) {
  return Command{CmdType::kRefresh, DramCoord{0, r, 0, 0, 0}, 0};
}

class RankTest : public ::testing::Test {
 protected:
  DramTimings t = make_ddr4_1600_timings();
  Rank rank{t, 8};
};

TEST_F(RankTest, TrrdBetweenActivatesToDifferentBanks) {
  rank.issue(act(0, 0, 1), 0);
  EXPECT_FALSE(rank.can_issue(act(0, 1, 1), t.tRRD - 1));
  EXPECT_TRUE(rank.can_issue(act(0, 1, 1), t.tRRD));
}

TEST_F(RankTest, TfawLimitsFourActivatesPerWindow) {
  Cycle now = 0;
  for (BankId b = 0; b < 4; ++b) {
    rank.issue(act(0, b, 1), now);
    now += t.tRRD;
  }
  // The 5th ACT must wait until tFAW from the first (DDR4-1600: tFAW is
  // exactly 4 x tRRD, so the window opens right as tRRD would allow it).
  EXPECT_FALSE(rank.can_issue(act(0, 4, 1), t.tFAW - 1));
  EXPECT_TRUE(rank.can_issue(act(0, 4, 1), t.tFAW));
}

TEST_F(RankTest, TccdBetweenColumnCommands) {
  rank.issue(act(0, 0, 1), 0);
  rank.issue(act(0, 1, 1), t.tRRD);
  const Cycle first_rd = t.tRRD + t.tRCD;
  rank.issue(rd(0, 0, 1, 0), first_rd);
  EXPECT_FALSE(rank.can_issue(rd(0, 1, 1, 0), first_rd + t.tCCD - 1));
  EXPECT_TRUE(rank.can_issue(rd(0, 1, 1, 0), first_rd + t.tCCD));
}

TEST_F(RankTest, WriteToReadTurnaroundAppliesRankWide) {
  rank.issue(act(0, 0, 1), 0);
  rank.issue(act(0, 1, 1), t.tRRD);
  const Cycle wr_at = t.tRRD + t.tRCD;
  rank.issue(wr(0, 0, 1, 0), wr_at);
  const Cycle rd_ok = t.write_data_done(wr_at) + t.tWTR;
  // Read to a *different* bank in the same rank also waits for tWTR.
  EXPECT_FALSE(rank.can_issue(rd(0, 1, 1, 0), rd_ok - 1));
  EXPECT_TRUE(rank.can_issue(rd(0, 1, 1, 0), rd_ok));
}

TEST_F(RankTest, RefreshRequiresAllBanksPrecharged) {
  rank.issue(act(0, 3, 1), 0);
  EXPECT_FALSE(rank.can_issue(ref(0), t.tRAS + t.tRP + 100));
  rank.issue(pre(0, 3), t.tRAS);
  // Still waiting on tRP recovery of bank 3.
  EXPECT_FALSE(rank.can_issue(ref(0), t.tRAS + t.tRP - 1));
  EXPECT_TRUE(rank.can_issue(ref(0), t.tRAS + t.tRP));
}

TEST_F(RankTest, RefreshWaitsForSubarrayRefreshLock) {
  Rank sub{t, 8, 8, 1u << 16};
  const Command refpb{CmdType::kRefreshBank, DramCoord{0, 0, 5, 0, 0}, 0};
  sub.issue(refpb, 100);
  // The subarray lock keeps the bank precharged, but a REF must wait for
  // it to end, as the bank's own REF legality does.
  EXPECT_EQ(sub.earliest_refresh_ready(), 100 + t.tRFCpb);
  EXPECT_FALSE(sub.can_issue(ref(0), 100 + t.tRFCpb - 1));
  EXPECT_TRUE(sub.can_issue(ref(0), 100 + t.tRFCpb));
  sub.issue(ref(0), 100 + t.tRFCpb);
  EXPECT_TRUE(sub.refreshing());
}

TEST_F(RankTest, RefreshFreezesEveryBankUntilTrfc) {
  rank.issue(ref(0), 10);
  EXPECT_TRUE(rank.refreshing());
  EXPECT_EQ(rank.refresh_done(), 10 + t.tRFC);
  EXPECT_FALSE(rank.can_issue(act(0, 0, 1), 10 + t.tRFC - 1));
  rank.tick(10 + t.tRFC - 1);
  EXPECT_TRUE(rank.refreshing());
  rank.tick(10 + t.tRFC);
  EXPECT_FALSE(rank.refreshing());
  EXPECT_TRUE(rank.can_issue(act(0, 0, 1), 10 + t.tRFC));
}

TEST_F(RankTest, ActivityAccountingPartitionsTime) {
  // 100 cycles precharged, then active until 300, then refresh.
  rank.issue(act(0, 0, 5), 100);
  rank.issue(pre(0, 0), 100 + t.tRAS);
  const Cycle ref_at = 300;
  rank.issue(ref(0), ref_at);
  rank.tick(ref_at + t.tRFC);
  rank.settle_accounting(1000);

  const RankActivity& a = rank.activity();
  EXPECT_EQ(a.active_cycles, static_cast<std::uint64_t>(t.tRAS));
  EXPECT_EQ(a.refresh_cycles, static_cast<std::uint64_t>(t.tRFC));
  EXPECT_EQ(a.active_cycles + a.precharged_cycles + a.refresh_cycles, 1000u);
}

TEST_F(RankTest, AccountingSettlesMidRefresh) {
  rank.issue(ref(0), 0);
  rank.settle_accounting(t.tRFC / 2);
  EXPECT_EQ(rank.activity().refresh_cycles,
            static_cast<std::uint64_t>(t.tRFC / 2));
  // Settling past the end splits refresh vs precharged correctly.
  rank.settle_accounting(t.tRFC + 50);
  EXPECT_EQ(rank.activity().refresh_cycles,
            static_cast<std::uint64_t>(t.tRFC));
  EXPECT_EQ(rank.activity().precharged_cycles, 50u);
}

TEST_F(RankTest, AllBanksPrechargedTracksState) {
  EXPECT_TRUE(rank.all_banks_precharged());
  rank.issue(act(0, 2, 9), 0);
  EXPECT_FALSE(rank.all_banks_precharged());
  rank.issue(pre(0, 2), t.tRAS);
  EXPECT_TRUE(rank.all_banks_precharged());
}

// The rank's summaries (active-bank mask, recovery point, REFpb release)
// are kept where commands and releases change the banks. Check each against
// a scan of the banks after every step of a random command stream, across a
// snapshot round trip that rebuilds them from the loaded banks.
void expect_summaries_match_scan(const Rank& rank, std::uint32_t step) {
  std::uint32_t active = 0;
  std::uint32_t precharged = 0;
  Cycle ready = 0;
  Cycle pb_release = kNeverCycle;
  for (BankId b = 0; b < rank.num_banks(); ++b) {
    const Bank& bank = rank.bank(b);
    if (bank.state() == BankState::kActive) active |= 1u << b;
    if (bank.state() == BankState::kPrecharged) ++precharged;
    ready = std::max(
        {ready, bank.next_activate(), bank.any_subarray_busy_until()});
    if (!rank.refreshing() && bank.state() == BankState::kRefreshing) {
      pb_release = std::min(pb_release, bank.next_activate());
    }
  }
  const Cycle refresh_ready =
      active != 0 ? kNeverCycle
                  : std::max(ready, rank.refreshing() ? rank.refresh_done() : 0);
  EXPECT_EQ(rank.active_banks(), active) << "step " << step;
  EXPECT_EQ(rank.all_banks_precharged(), precharged == rank.num_banks())
      << "step " << step;
  EXPECT_EQ(rank.earliest_refresh_ready(), refresh_ready) << "step " << step;
  EXPECT_EQ(rank.earliest_pb_release(), pb_release) << "step " << step;
  EXPECT_EQ(rank.pb_refreshing(), pb_release != kNeverCycle)
      << "step " << step;
  EXPECT_EQ(rank.next_release(),
            rank.refreshing() ? rank.refresh_done() : pb_release)
      << "step " << step;
}

void run_random_commands(std::uint32_t subarrays, std::uint64_t seed) {
  const DramTimings t = make_ddr4_1600_timings();
  constexpr std::uint32_t kRows = 1u << 16;
  constexpr std::uint32_t kSteps = 6000;
  Rank first(t, 8, subarrays, kRows);
  Rank restored(t, 8, subarrays, kRows);
  Rank* rank = &first;
  Rng rng(seed);
  Cycle now = 0;
  for (std::uint32_t step = 0; step < kSteps; ++step) {
    if (step == kSteps / 2) {
      // Mid-stream round trip: the restored rank rebuilds its summaries
      // from the loaded banks and writes the same bytes.
      snap::Writer saved;
      saved.field(*rank);
      snap::Reader reader(saved.buffer());
      reader.field(restored);
      ASSERT_TRUE(reader.at_end()) << reader.error();
      snap::Writer again;
      again.field(restored);
      ASSERT_EQ(saved.buffer(), again.buffer());
      rank = &restored;
      expect_summaries_match_scan(*rank, step);
    }
    const auto b = static_cast<BankId>(rng.next_below(8));
    const Bank& bank = rank->bank(b);
    // A few rows in each of a few subarrays: row hits, conflicts, and
    // (with subarrays) refreshes beside an open row.
    const auto row = static_cast<RowId>(
        rng.next_below(std::min<std::uint32_t>(subarrays, 4)) *
            (kRows / subarrays) +
        rng.next_below(3));
    const RowId open = bank.open_row().value_or(row);
    DramCoord at{0, 0, b, row, 0};
    const DramCoord at_open{0, 0, b, open, 0};
    std::uint64_t op = rng.next_below(8);
    if ((op == 4 || op == 5) && rank->active_banks() != 0) {
      // A refresh closes the open banks first, one PRE at a time.
      op = 1;
      at.bank = static_cast<BankId>(std::countr_zero(rank->active_banks()));
    }
    Command cmd{CmdType::kActivate, at, 0};
    switch (op) {
      case 0: cmd = Command{CmdType::kActivate, at, 0}; break;
      case 1: cmd = Command{CmdType::kPrecharge, at, 0}; break;
      case 2: cmd = Command{CmdType::kRead, at_open, 0}; break;
      case 3: cmd = Command{CmdType::kWrite, at_open, 0}; break;
      case 4:
      case 5: cmd = Command{CmdType::kRefresh, at, 0}; break;
      case 6: cmd = Command{CmdType::kRefreshBank, at, 0}; break;
      default: break;  // time passes with no command
    }
    const Cycle when = op == 7 ? now : op == 4 || op == 5
                                           ? rank->earliest_refresh_ready()
                                           : rank->earliest_issue(cmd);
    if (when == kNeverCycle) continue;
    now = std::max(now, when) + (rng.next_bool(0.3) ? rng.next_below(200) : 0);
    rank->tick(now);
    expect_summaries_match_scan(*rank, step);
    if (op == 7 || !rank->can_issue(cmd, now)) continue;
    if (op == 5) {
      // A Refresh Pausing segment, cut short or run long.
      rank->begin_refresh_segment(now, 16 + rng.next_below(t.tRFC));
    } else {
      rank->issue(cmd, now);
    }
    expect_summaries_match_scan(*rank, step);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(RankSummaries, MatchBankScanOverRandomCommands) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) run_random_commands(1, seed);
}

TEST(RankSummaries, MatchBankScanOverRandomCommandsWithSubarrays) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) run_random_commands(8, seed);
}

}  // namespace
}  // namespace rop::dram
