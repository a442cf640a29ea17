// Bank state-machine tests: command legality and timing constraints.
#include <gtest/gtest.h>

#include "dram/bank.h"

namespace rop::dram {
namespace {

class BankTest : public ::testing::Test {
 protected:
  DramTimings t = make_ddr4_1600_timings();
  Bank bank;
};

TEST_F(BankTest, StartsPrechargedAndActivatable) {
  EXPECT_EQ(bank.state(), BankState::kPrecharged);
  EXPECT_FALSE(bank.open_row().has_value());
  EXPECT_TRUE(bank.can_issue(CmdType::kActivate, 5, 0));
  EXPECT_FALSE(bank.can_issue(CmdType::kRead, 5, 0));
  EXPECT_FALSE(bank.can_issue(CmdType::kWrite, 5, 0));
  EXPECT_FALSE(bank.can_issue(CmdType::kPrecharge, 0, 0));
}

TEST_F(BankTest, ActivateOpensRowAndSetsConstraints) {
  bank.issue(CmdType::kActivate, 42, 100, t);
  EXPECT_EQ(bank.state(), BankState::kActive);
  ASSERT_TRUE(bank.open_row().has_value());
  EXPECT_EQ(*bank.open_row(), 42u);
  EXPECT_EQ(bank.next_read(), 100 + t.tRCD);
  EXPECT_EQ(bank.next_write(), 100 + t.tRCD);
  EXPECT_EQ(bank.next_precharge(), 100 + t.tRAS);
  EXPECT_EQ(bank.next_activate(), 100 + t.tRC);
}

TEST_F(BankTest, ReadRequiresRowMatchAndTrcd) {
  bank.issue(CmdType::kActivate, 42, 100, t);
  EXPECT_FALSE(bank.can_issue(CmdType::kRead, 42, 100 + t.tRCD - 1));
  EXPECT_TRUE(bank.can_issue(CmdType::kRead, 42, 100 + t.tRCD));
  EXPECT_FALSE(bank.can_issue(CmdType::kRead, 43, 100 + t.tRCD));
}

TEST_F(BankTest, PrechargeRespectsTras) {
  bank.issue(CmdType::kActivate, 7, 0, t);
  EXPECT_FALSE(bank.can_issue(CmdType::kPrecharge, 0, t.tRAS - 1));
  EXPECT_TRUE(bank.can_issue(CmdType::kPrecharge, 0, t.tRAS));
  bank.issue(CmdType::kPrecharge, 0, t.tRAS, t);
  EXPECT_EQ(bank.state(), BankState::kPrecharged);
  EXPECT_FALSE(bank.open_row().has_value());
  // tRP before the next activate.
  EXPECT_FALSE(bank.can_issue(CmdType::kActivate, 9, t.tRAS + t.tRP - 1));
  EXPECT_TRUE(bank.can_issue(CmdType::kActivate, 9, t.tRAS + t.tRP));
}

TEST_F(BankTest, ReadExtendsPrechargePoint) {
  bank.issue(CmdType::kActivate, 1, 0, t);
  const Cycle rd_at = t.tRAS - 2;  // a late read pushes tRTP past tRAS
  bank.issue(CmdType::kRead, 1, rd_at, t);
  EXPECT_EQ(bank.next_precharge(), std::max<Cycle>(t.tRAS, rd_at + t.tRTP));
}

TEST_F(BankTest, WriteRecoveryDelaysPrecharge) {
  bank.issue(CmdType::kActivate, 1, 0, t);
  bank.issue(CmdType::kWrite, 1, t.tRCD, t);
  const Cycle expected = t.write_data_done(t.tRCD) + t.tWR;
  EXPECT_EQ(bank.next_precharge(), std::max<Cycle>(t.tRAS, expected));
}

TEST_F(BankTest, BackToBackActivatesRespectTrc) {
  bank.issue(CmdType::kActivate, 1, 0, t);
  bank.issue(CmdType::kPrecharge, 0, t.tRAS, t);
  // tRC from the first ACT dominates tRAS + tRP here (tRC = tRAS + tRP).
  EXPECT_FALSE(bank.can_issue(CmdType::kActivate, 2, t.tRC - 1));
  EXPECT_TRUE(bank.can_issue(CmdType::kActivate, 2, t.tRC));
}

TEST_F(BankTest, RefreshLocksBankForTrfc) {
  bank.issue(CmdType::kRefresh, 0, 50, t);
  EXPECT_EQ(bank.state(), BankState::kRefreshing);
  EXPECT_FALSE(bank.can_issue(CmdType::kActivate, 1, 50 + t.tRFC + 10));
  bank.complete_refresh(50 + t.tRFC);
  EXPECT_EQ(bank.state(), BankState::kPrecharged);
  EXPECT_FALSE(bank.can_issue(CmdType::kActivate, 1, 50 + t.tRFC - 1));
  EXPECT_TRUE(bank.can_issue(CmdType::kActivate, 1, 50 + t.tRFC));
}

TEST_F(BankTest, DeferHelpersOnlyTighten) {
  bank.issue(CmdType::kActivate, 1, 0, t);
  const Cycle before = bank.next_read();
  bank.defer_read_until(before - 1);  // looser: must not relax
  EXPECT_EQ(bank.next_read(), before);
  bank.defer_read_until(before + 100);
  EXPECT_EQ(bank.next_read(), before + 100);
}

// --- Subarray-aware model (SARP / HiRA substrate) ---------------------

class SubarrayBankTest : public ::testing::Test {
 protected:
  void SetUp() override { bank.configure_subarrays(8, 64 * 1024); }
  DramTimings t = make_ddr4_1600_timings();
  Bank bank;
};

TEST_F(SubarrayBankTest, RowsPartitionIntoContiguousSubarrays) {
  EXPECT_EQ(bank.subarrays(), 8u);
  const std::uint32_t rows_per_sub = 64 * 1024 / 8;
  EXPECT_EQ(bank.subarray_of(0), 0u);
  EXPECT_EQ(bank.subarray_of(rows_per_sub - 1), 0u);
  EXPECT_EQ(bank.subarray_of(rows_per_sub), 1u);
  EXPECT_EQ(bank.subarray_of(64 * 1024 - 1), 7u);
  for (std::uint32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(bank.subarray_of(bank.subarray_row(s)), s);
  }
}

TEST_F(SubarrayBankTest, SubarrayRefreshLocksOnlyTargetSubarray) {
  const RowId sub0_row = bank.subarray_row(0);
  const RowId sub3_row = bank.subarray_row(3);
  bank.issue(CmdType::kRefreshBank, sub0_row, 100, t);
  // The bank does NOT go whole-bank kRefreshing: other subarrays serve.
  EXPECT_EQ(bank.state(), BankState::kPrecharged);
  ASSERT_TRUE(bank.refreshing_subarray(100).has_value());
  EXPECT_EQ(*bank.refreshing_subarray(100), 0u);
  EXPECT_EQ(bank.subarray_busy_until(0), 100 + t.tRFCpb);
  // ACT into the locked subarray is illegal; into another it is legal.
  EXPECT_FALSE(bank.can_issue(CmdType::kActivate, sub0_row, 100));
  EXPECT_TRUE(bank.can_issue(CmdType::kActivate, sub3_row, 100));
  // The lock expires after tRFCpb.
  EXPECT_FALSE(
      bank.can_issue(CmdType::kActivate, sub0_row, 100 + t.tRFCpb - 1));
  EXPECT_TRUE(bank.can_issue(CmdType::kActivate, sub0_row, 100 + t.tRFCpb));
  EXPECT_FALSE(bank.refreshing_subarray(100 + t.tRFCpb).has_value());
}

TEST_F(SubarrayBankTest, AtMostOneSubarrayRefreshInFlight) {
  bank.issue(CmdType::kRefreshBank, bank.subarray_row(0), 100, t);
  // A second subarray refresh (any target) must wait out the first.
  EXPECT_FALSE(
      bank.can_issue(CmdType::kRefreshBank, bank.subarray_row(4), 100));
  EXPECT_FALSE(bank.can_issue(CmdType::kRefreshBank, bank.subarray_row(4),
                              100 + t.tRFCpb - 1));
  EXPECT_TRUE(bank.can_issue(CmdType::kRefreshBank, bank.subarray_row(4),
                             100 + t.tRFCpb));
  // Whole-bank REF also waits for the in-flight subarray refresh.
  EXPECT_FALSE(bank.can_issue(CmdType::kRefresh, 0, 100 + t.tRFCpb - 1));
  EXPECT_TRUE(bank.can_issue(CmdType::kRefresh, 0, 100 + t.tRFCpb));
}

TEST_F(SubarrayBankTest, HiraOverlapRefreshLegalUnderOpenRowElsewhere) {
  const RowId open = bank.subarray_row(2) + 5;
  bank.issue(CmdType::kActivate, open, 0, t);
  ASSERT_EQ(bank.state(), BankState::kActive);
  // Same-subarray refresh under the open row: never legal.
  EXPECT_FALSE(bank.can_issue(CmdType::kRefreshBank, bank.subarray_row(2),
                              t.tRC + 10));
  EXPECT_EQ(bank.earliest_issue(CmdType::kRefreshBank, bank.subarray_row(2)),
            kNeverCycle);
  // Different subarray: legal once tRC from the ACT has elapsed (the
  // hidden activation needs its own row-cycle spacing).
  EXPECT_FALSE(
      bank.can_issue(CmdType::kRefreshBank, bank.subarray_row(6), t.tRC - 1));
  EXPECT_TRUE(
      bank.can_issue(CmdType::kRefreshBank, bank.subarray_row(6), t.tRC));
  EXPECT_EQ(bank.earliest_issue(CmdType::kRefreshBank, bank.subarray_row(6)),
            t.tRC);
  bank.issue(CmdType::kRefreshBank, bank.subarray_row(6), t.tRC, t);
  // The open row survives the overlapped refresh; reads keep flowing.
  ASSERT_TRUE(bank.open_row().has_value());
  EXPECT_EQ(*bank.open_row(), open);
  EXPECT_TRUE(bank.can_issue(CmdType::kRead, open, t.tRC));
}

TEST_F(SubarrayBankTest, SubarrayRefreshClosesLocalRowRecord) {
  const RowId row = bank.subarray_row(1) + 3;
  bank.issue(CmdType::kActivate, row, 0, t);
  EXPECT_EQ(bank.subarray_last_row(1), std::optional<RowId>(row));
  bank.issue(CmdType::kPrecharge, 0, t.tRAS, t);
  bank.issue(CmdType::kRefreshBank, bank.subarray_row(1), t.tRC, t);
  EXPECT_FALSE(bank.subarray_last_row(1).has_value());
}

TEST_F(BankTest, WholeBankModeUnchangedBySubarrayApi) {
  // Default configuration is one subarray == the legacy whole-bank model:
  // REFpb locks the entire bank via kRefreshing.
  EXPECT_EQ(bank.subarrays(), 1u);
  EXPECT_EQ(bank.subarray_of(12345), 0u);
  bank.issue(CmdType::kRefreshBank, 0, 50, t);
  EXPECT_EQ(bank.state(), BankState::kRefreshing);
  EXPECT_FALSE(bank.refreshing_subarray(50).has_value());
  bank.complete_refresh(50 + t.tRFCpb);
  EXPECT_FALSE(bank.can_issue(CmdType::kActivate, 1, 50 + t.tRFCpb - 1));
  EXPECT_TRUE(bank.can_issue(CmdType::kActivate, 1, 50 + t.tRFCpb));
}

}  // namespace
}  // namespace rop::dram
