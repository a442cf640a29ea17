// Write-queue semantics: read-after-write forwarding against the indexed
// write queue, forwarding after coalescing, and the admission-control
// guarantee that a rejected request leaves stats and index state untouched.
#include <gtest/gtest.h>

#include <memory>

#include "mem/controller.h"

namespace rop::mem {
namespace {

class WriteQueueTest : public ::testing::Test {
 protected:
  WriteQueueTest() : t(dram::make_ddr4_1600_timings()) {
    org.channels = 1;
    org.ranks = 2;
    org.banks = 8;
  }

  std::unique_ptr<Controller> make(ControllerConfig cfg = {}) {
    return std::make_unique<Controller>(0, t, org, cfg, &stats);
  }

  Request req(ReqType type, Address line, RankId rank = 0, BankId bank = 0,
              RowId row = 0, ColumnId col = 0) {
    Request r;
    r.id = next_id_++;
    r.type = type;
    r.line_addr = line;
    r.coord = DramCoord{0, rank, bank, row, col};
    return r;
  }

  dram::DramTimings t;
  dram::DramOrganization org;
  StatRegistry stats;
  RequestId next_id_ = 1;
};

TEST_F(WriteQueueTest, ForwardingReturnsCoalescedNewestWrite) {
  ControllerConfig cfg;
  cfg.refresh = RefreshScheme::kNoRefresh;
  auto c = make(cfg);

  ASSERT_TRUE(c->enqueue(req(ReqType::kWrite, 0x1000, 0, 2, 7, 1), 0));
  // A second write to the same line coalesces into the queued entry.
  ASSERT_TRUE(c->enqueue(req(ReqType::kWrite, 0x1000, 0, 2, 7, 1), 5));
  EXPECT_EQ(stats.counter_value("mem.write_coalesced"), 1u);
  EXPECT_EQ(c->write_queue_depth(), 1u);

  // A read to the line forwards from the (coalesced) write queue entry.
  ASSERT_TRUE(c->enqueue(req(ReqType::kRead, 0x1000, 0, 2, 7, 1), 10));
  EXPECT_EQ(stats.counter_value("mem.read_forwarded"), 1u);
  const auto done = c->drain_completed();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].serviced_by, ServicedBy::kWriteForward);
  EXPECT_EQ(done[0].completion, 11u);  // forwarding costs one cycle
  EXPECT_EQ(c->read_queue_depth(), 0u);
}

TEST_F(WriteQueueTest, ForwardingStopsOnceTheWriteIssues) {
  ControllerConfig cfg;
  cfg.refresh = RefreshScheme::kNoRefresh;
  cfg.sched.write_drain_high = 1;  // drain immediately
  auto c = make(cfg);

  ASSERT_TRUE(c->enqueue(req(ReqType::kWrite, 0x2000, 1, 3, 4, 2), 0));
  // Tick until the write has gone to DRAM (the queue empties).
  Cycle now = 0;
  for (; now < 200 && c->write_queue_depth() > 0; ++now) c->tick(now);
  ASSERT_EQ(c->write_queue_depth(), 0u);
  EXPECT_EQ(stats.counter_value("mem.writes_issued"), 1u);

  // The index entry must be gone with the write: this read goes to DRAM.
  ASSERT_TRUE(c->enqueue(req(ReqType::kRead, 0x2000, 1, 3, 4, 2), now));
  EXPECT_EQ(stats.counter_value("mem.read_forwarded"), 0u);
  EXPECT_EQ(c->read_queue_depth(), 1u);
}

TEST_F(WriteQueueTest, RejectedWriteLeavesStateUntouched) {
  ControllerConfig cfg;
  cfg.refresh = RefreshScheme::kNoRefresh;
  cfg.sched.write_queue_capacity = 2;
  // Keep the controller from draining the queue mid-test.
  cfg.sched.write_drain_high = 64;
  auto c = make(cfg);

  ASSERT_TRUE(c->enqueue(req(ReqType::kWrite, 0x100, 0, 0, 1, 0), 0));
  ASSERT_TRUE(c->enqueue(req(ReqType::kWrite, 0x200, 0, 1, 2, 0), 1));
  ASSERT_EQ(c->write_queue_depth(), 2u);
  const std::uint64_t writes_before = stats.counter_value("mem.writes");

  // Queue full: the write is rejected and must not perturb anything —
  // not the write counter, not pending_demand, not the forwarding index.
  EXPECT_FALSE(c->enqueue(req(ReqType::kWrite, 0x300, 0, 2, 3, 0), 7));
  EXPECT_EQ(stats.counter_value("mem.writes"), writes_before);
  EXPECT_EQ(c->write_queue_depth(), 2u);
  EXPECT_EQ(c->pending_demand(0), 2u);

  // The rejected line never entered the index: a read to it must miss the
  // forwarding path and queue for DRAM.
  ASSERT_TRUE(c->enqueue(req(ReqType::kRead, 0x300, 0, 2, 3, 0), 8));
  EXPECT_EQ(stats.counter_value("mem.read_forwarded"), 0u);
  EXPECT_EQ(c->read_queue_depth(), 1u);
}

TEST_F(WriteQueueTest, RejectedReadLeavesStateUntouched) {
  ControllerConfig cfg;
  cfg.refresh = RefreshScheme::kNoRefresh;
  cfg.sched.read_queue_capacity = 2;
  auto c = make(cfg);

  ASSERT_TRUE(c->enqueue(req(ReqType::kRead, 0x100, 0, 0, 1, 0), 0));
  ASSERT_TRUE(c->enqueue(req(ReqType::kRead, 0x200, 0, 1, 2, 0), 0));
  const std::uint64_t reads_before = stats.counter_value("mem.reads");

  EXPECT_FALSE(c->enqueue(req(ReqType::kRead, 0x300, 0, 2, 3, 0), 1));
  EXPECT_EQ(stats.counter_value("mem.reads"), reads_before);
  EXPECT_EQ(c->read_queue_depth(), 2u);
  EXPECT_EQ(c->pending_demand(0), 2u);
}

TEST_F(WriteQueueTest, PendingDemandTracksPerRankAcrossLifecycle) {
  ControllerConfig cfg;
  cfg.refresh = RefreshScheme::kNoRefresh;
  auto c = make(cfg);

  ASSERT_TRUE(c->enqueue(req(ReqType::kRead, 0x100, 0, 0, 1, 0), 0));
  ASSERT_TRUE(c->enqueue(req(ReqType::kRead, 0x9100, 1, 4, 2, 0), 0));
  ASSERT_TRUE(c->enqueue(req(ReqType::kWrite, 0x9200, 1, 5, 3, 0), 0));
  EXPECT_EQ(c->pending_demand(0), 1u);
  EXPECT_EQ(c->pending_demand(1), 2u);

  // Coalesced writes add no occupancy.
  ASSERT_TRUE(c->enqueue(req(ReqType::kWrite, 0x9200, 1, 5, 3, 0), 1));
  EXPECT_EQ(c->pending_demand(1), 2u);

  // Forwarded reads complete immediately and add no occupancy either.
  ASSERT_TRUE(c->enqueue(req(ReqType::kRead, 0x9200, 1, 5, 3, 0), 2));
  EXPECT_EQ(c->pending_demand(1), 2u);

  // Drain everything; the incremental counters must return to zero.
  for (Cycle now = 3; now < 2000 && !c->idle(); ++now) {
    c->tick(now);
    (void)c->drain_completed();
  }
  EXPECT_TRUE(c->idle());
  EXPECT_EQ(c->pending_demand(0), 0u);
  EXPECT_EQ(c->pending_demand(1), 0u);
}

}  // namespace
}  // namespace rop::mem
