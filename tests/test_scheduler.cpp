// FR-FCFS scheduler tests (arena-backed queues).
#include <gtest/gtest.h>

#include <vector>

#include "mem/scheduler.h"

namespace rop::mem {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : t(dram::make_ddr4_1600_timings()) {
    org.channels = 1;
    org.ranks = 2;
    org.banks = 8;
  }

  /// Allocate a request in the arena and append its index to `q`.
  void add(std::vector<RequestIndex>& q, RequestId id, ReqType type,
           RankId rank, BankId bank, RowId row, ColumnId col = 0,
           Cycle arrival = 0) {
    Request r;
    r.id = id;
    r.type = type;
    r.coord = DramCoord{0, rank, bank, row, col};
    r.arrival = arrival;
    q.push_back(arena.alloc(r));
  }

  [[nodiscard]] QueueView view(const std::vector<RequestIndex>& q,
                               int id) const {
    return QueueView{&arena, &q, id};
  }

  static bool never_blocked(const Request&, int) { return false; }

  dram::DramTimings t;
  dram::DramOrganization org;
  RequestArena arena;
  Scheduler sched{SchedulerConfig{}};
};

TEST_F(SchedulerTest, EmptyQueuesPickNothing) {
  dram::Channel ch(t, org);
  std::vector<RequestIndex> reads;
  QueueView views[] = {view(reads, 0)};
  EXPECT_FALSE(sched.pick(views, ch, 0, never_blocked).has_value());
  EXPECT_EQ(sched.earliest_issue_cycle(views, ch, 0, never_blocked),
            kNeverCycle);
}

TEST_F(SchedulerTest, ClosedBankGetsActivate) {
  dram::Channel ch(t, org);
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 42);
  QueueView views[] = {view(reads, 0)};
  const auto pick = sched.pick(views, ch, 0, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.type, dram::CmdType::kActivate);
  EXPECT_EQ(pick->cmd.coord.row, 42u);
  EXPECT_FALSE(pick->services_request());
}

TEST_F(SchedulerTest, RowHitBeatsOlderRowMiss) {
  dram::Channel ch(t, org);
  ch.issue(dram::Command{dram::CmdType::kActivate, DramCoord{0, 0, 0, 7, 0}, 0},
           0);
  // Older request misses (bank 0 row 9); younger hits open row 7 in bank 0.
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 9, 0, 0);
  add(reads, 2, ReqType::kRead, 0, 0, 7, 3, 1);
  QueueView views[] = {view(reads, 0)};
  const auto pick = sched.pick(views, ch, t.tRCD, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.type, dram::CmdType::kRead);
  EXPECT_EQ(pick->cmd.request, 2u);
  EXPECT_TRUE(pick->services_request());
  EXPECT_EQ(pick->request_index, 1u);
}

TEST_F(SchedulerTest, RowConflictPrechargesWhenNoTakerRemains) {
  dram::Channel ch(t, org);
  ch.issue(dram::Command{dram::CmdType::kActivate, DramCoord{0, 0, 0, 7, 0}, 0},
           0);
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 9);
  QueueView views[] = {view(reads, 0)};
  const auto pick = sched.pick(views, ch, t.tRAS, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.type, dram::CmdType::kPrecharge);
}

TEST_F(SchedulerTest, OpenRowKeptWhileYoungerRequestStillHitsIt) {
  dram::Channel ch(t, org);
  ch.issue(dram::Command{dram::CmdType::kActivate, DramCoord{0, 0, 0, 7, 0}, 0},
           0);
  // Older conflicts with open row 7 but a younger request still wants it
  // and merely isn't timing-ready: the scheduler must not close the row
  // (it will pick the younger row-hit instead once ready; here the hit IS
  // ready so pass 1 takes it).
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 9);
  add(reads, 2, ReqType::kRead, 0, 0, 7);
  QueueView views[] = {view(reads, 0)};
  const auto pick = sched.pick(views, ch, t.tRAS, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.type, dram::CmdType::kRead);
  EXPECT_EQ(pick->cmd.request, 2u);
}

TEST_F(SchedulerTest, QueuePriorityOrderRespected) {
  dram::Channel ch(t, org);
  ch.issue(dram::Command{dram::CmdType::kActivate, DramCoord{0, 0, 0, 7, 0}, 0},
           0);
  std::vector<RequestIndex> reads;
  std::vector<RequestIndex> prefetches;
  add(reads, 1, ReqType::kRead, 0, 0, 7);
  add(prefetches, 2, ReqType::kPrefetch, 0, 0, 7);
  // Both row-hit; the first view wins.
  QueueView views_rp[] = {view(reads, 0), view(prefetches, 2)};
  auto pick = sched.pick(views_rp, ch, t.tRCD, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.request, 1u);

  QueueView views_pr[] = {view(prefetches, 2), view(reads, 0)};
  pick = sched.pick(views_pr, ch, t.tRCD, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.request, 2u);
}

TEST_F(SchedulerTest, BlockedPredicateMasksRequests) {
  dram::Channel ch(t, org);
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 42);
  add(reads, 2, ReqType::kRead, 1, 0, 42);
  QueueView views[] = {view(reads, 0)};
  const auto rank0_blocked = [](const Request& r, int) {
    return r.coord.rank == 0;
  };
  const auto pick = sched.pick(views, ch, 0, rank0_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.coord.rank, 1u);

  // With every request masked nothing can ever issue: the unblock point is
  // a separate controller event, so the scan reports "never".
  const auto all_blocked = [](const Request&, int) { return true; };
  EXPECT_EQ(sched.earliest_issue_cycle(views, ch, 0, all_blocked),
            kNeverCycle);
}

TEST_F(SchedulerTest, WriteGetsWriteCommand) {
  dram::Channel ch(t, org);
  ch.issue(dram::Command{dram::CmdType::kActivate, DramCoord{0, 0, 2, 5, 0}, 0},
           0);
  std::vector<RequestIndex> writes;
  add(writes, 9, ReqType::kWrite, 0, 2, 5);
  QueueView views[] = {view(writes, 1)};
  const auto pick = sched.pick(views, ch, t.tRCD, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.type, dram::CmdType::kWrite);
  EXPECT_EQ(pick->queue_id, 1);
}

// ---------------------------------------------------------------------------
// earliest_issue_cycle: the event-driven clock's scan must agree with pick()
// on frozen state — pick() returns nothing strictly before the reported
// cycle and returns a command exactly at it.

TEST_F(SchedulerTest, EarliestIssueClampsReadyCandidateToNextTick) {
  dram::Channel ch(t, org);
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 42);
  QueueView views[] = {view(reads, 0)};
  // The ACT is issuable immediately; on frozen state the next tick that can
  // act is now + 1.
  EXPECT_EQ(sched.earliest_issue_cycle(views, ch, 5, never_blocked), 6u);
}

TEST_F(SchedulerTest, EarliestIssueMatchesFirstPickForRowHit) {
  dram::Channel ch(t, org);
  ch.issue(dram::Command{dram::CmdType::kActivate, DramCoord{0, 0, 0, 7, 0}, 0},
           0);
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 7);
  QueueView views[] = {view(reads, 0)};
  const Cycle when = sched.earliest_issue_cycle(views, ch, 0, never_blocked);
  EXPECT_EQ(when, Cycle{t.tRCD});
  for (Cycle c = 1; c < when; ++c) {
    EXPECT_FALSE(sched.pick(views, ch, c, never_blocked).has_value())
        << "pick() issued before the reported earliest cycle " << when
        << " at " << c;
  }
  const auto pick = sched.pick(views, ch, when, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.type, dram::CmdType::kRead);
}

TEST_F(SchedulerTest, EarliestIssueMatchesFirstPickForPrecharge) {
  dram::Channel ch(t, org);
  ch.issue(dram::Command{dram::CmdType::kActivate, DramCoord{0, 0, 0, 7, 0}, 0},
           0);
  // Row conflict with no taker: the first possible command is the PRE at
  // tRAS expiry.
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 9);
  QueueView views[] = {view(reads, 0)};
  const Cycle when = sched.earliest_issue_cycle(views, ch, 0, never_blocked);
  EXPECT_EQ(when, Cycle{t.tRAS});
  for (Cycle c = 1; c < when; ++c) {
    EXPECT_FALSE(sched.pick(views, ch, c, never_blocked).has_value());
  }
  const auto pick = sched.pick(views, ch, when, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.type, dram::CmdType::kPrecharge);
}

TEST_F(SchedulerTest, EarliestIssueSuppressesPrechargeWhileTakerRemains) {
  dram::Channel ch(t, org);
  ch.issue(dram::Command{dram::CmdType::kActivate, DramCoord{0, 0, 0, 7, 0}, 0},
           0);
  // A conflicting read would want a PRE at tRAS, but a younger row-hit
  // keeps the row open: the next candidate is the hit's column command at
  // tRCD, exactly what pick() will choose.
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 9);
  add(reads, 2, ReqType::kRead, 0, 0, 7);
  QueueView views[] = {view(reads, 0)};
  const Cycle when = sched.earliest_issue_cycle(views, ch, 0, never_blocked);
  EXPECT_EQ(when, Cycle{t.tRCD});
  const auto pick = sched.pick(views, ch, when, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.type, dram::CmdType::kRead);
  EXPECT_EQ(pick->cmd.request, 2u);
}

TEST_F(SchedulerTest, RefreshLockedSubarrayDoesNotVetoActToAnotherSubarray) {
  // SARP/HiRA: REFpb locks subarray 0 of bank 0. An older read to that
  // subarray cannot activate, but a younger read to subarray 1 of the same
  // bank can: pick() must return its ACT, and earliest_issue_cycle must
  // agree. A per-bank ACT verdict cached from the older request used to
  // veto the younger one, and the event loop then re-ticked a no-op every
  // cycle until the lock ended.
  org.ranks = 1;
  org.subarrays = 8;
  dram::Channel ch(t, org);
  const dram::Bank& bank = ch.rank(0).bank(0);
  const RowId sub0_row = bank.subarray_row(0);
  const RowId sub1_row = bank.subarray_row(1);
  ch.issue(dram::Command{dram::CmdType::kRefreshBank,
                         DramCoord{0, 0, 0, sub0_row, 0}, 0},
           0);
  const auto act = [](RowId row) {
    return dram::Command{dram::CmdType::kActivate, DramCoord{0, 0, 0, row, 0},
                         0};
  };
  // First cycle the free subarray accepts an ACT while the locked one
  // still refuses it.
  Cycle now = 0;
  while (!ch.can_issue(act(sub1_row), now)) {
    ++now;
    ASSERT_LT(now, Cycle{100000});
  }
  ASSERT_GT(now, Cycle{0});
  ASSERT_FALSE(ch.can_issue(act(sub0_row), now));

  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, sub0_row, 0, 0);
  add(reads, 2, ReqType::kRead, 0, 0, sub1_row, 0, 1);
  QueueView views[] = {view(reads, 0)};
  const auto pick = sched.pick(views, ch, now, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.type, dram::CmdType::kActivate);
  EXPECT_EQ(pick->cmd.request, 2u);
  EXPECT_EQ(pick->cmd.coord.row, sub1_row);
  EXPECT_EQ(pick->request_index, 1u);
  // On frozen state, the next tick that can act is the one right after.
  EXPECT_EQ(sched.earliest_issue_cycle(views, ch, now - 1, never_blocked),
            now);
}

}  // namespace
}  // namespace rop::mem
