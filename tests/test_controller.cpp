// Controller integration tests: request lifecycle, refresh policies,
// forwarding, and the listener hook protocol.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "common/snapshot_io.h"
#include "mem/controller.h"
#include "telemetry/trace_sink.h"

namespace rop::mem {
namespace {

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : t(dram::make_ddr4_1600_timings()) {
    org.channels = 1;
    org.ranks = 1;
    org.banks = 8;
  }

  std::unique_ptr<Controller> make(ControllerConfig cfg = {}) {
    return std::make_unique<Controller>(0, t, org, cfg, &stats);
  }

  Request read_req(Address line, RankId rank = 0, BankId bank = 0,
                   RowId row = 0, ColumnId col = 0) {
    Request r;
    r.id = next_id_++;
    r.type = ReqType::kRead;
    r.line_addr = line;
    r.coord = DramCoord{0, rank, bank, row, col};
    return r;
  }
  Request write_req(Address line, RankId rank = 0, BankId bank = 0,
                    RowId row = 0, ColumnId col = 0) {
    Request r = read_req(line, rank, bank, row, col);
    r.type = ReqType::kWrite;
    return r;
  }

  /// Tick until `pred` or the bound is hit; returns cycles consumed.
  template <typename Pred>
  Cycle run_until(Controller& c, Cycle from, Cycle bound, Pred pred) {
    Cycle now = from;
    for (; now < bound && !pred(); ++now) c.tick(now);
    return now;
  }

  dram::DramTimings t;
  dram::DramOrganization org;
  StatRegistry stats;
  RequestId next_id_ = 1;
};

TEST_F(ControllerTest, ReadCompletesWithDramLatency) {
  ControllerConfig cfg;
  cfg.refresh = RefreshScheme::kNoRefresh;
  auto c = make(cfg);
  ASSERT_TRUE(c->enqueue(read_req(0x1000, 0, 0, 5, 3), 0));
  std::vector<Request> done;
  run_until(*c, 0, 1000, [&] {
    auto d = c->drain_completed();
    done.insert(done.end(), d.begin(), d.end());
    return !done.empty();
  });
  ASSERT_EQ(done.size(), 1u);
  // ACT at ~1, RD at ~1+tRCD, data done CL+tBL later.
  EXPECT_GE(done[0].completion, t.tRCD + t.CL + t.tBL);
  EXPECT_LE(done[0].completion, t.tRCD + t.CL + t.tBL + 8);
  EXPECT_EQ(done[0].serviced_by, ServicedBy::kDram);
}

TEST_F(ControllerTest, WritesArePostedAndRetireSilently) {
  ControllerConfig cfg;
  cfg.refresh = RefreshScheme::kNoRefresh;
  auto c = make(cfg);
  ASSERT_TRUE(c->enqueue(write_req(0x2000, 0, 1, 2, 0), 0));
  run_until(*c, 0, 2000, [&] { return c->idle(); });
  EXPECT_TRUE(c->idle());
  EXPECT_EQ(stats.counter_value("mem.writes_issued"), 1u);
  EXPECT_TRUE(c->drain_completed().empty());
}

TEST_F(ControllerTest, ReadAfterWriteForwards) {
  ControllerConfig cfg;
  cfg.refresh = RefreshScheme::kNoRefresh;
  auto c = make(cfg);
  ASSERT_TRUE(c->enqueue(write_req(0x3000, 0, 0, 1, 1), 0));
  ASSERT_TRUE(c->enqueue(read_req(0x3000, 0, 0, 1, 1), 0));
  const auto done = c->drain_completed();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].serviced_by, ServicedBy::kWriteForward);
  EXPECT_EQ(done[0].completion, 1u);
}

TEST_F(ControllerTest, DuplicateWritesCoalesce) {
  ControllerConfig cfg;
  cfg.refresh = RefreshScheme::kNoRefresh;
  auto c = make(cfg);
  ASSERT_TRUE(c->enqueue(write_req(0x4000), 0));
  ASSERT_TRUE(c->enqueue(write_req(0x4000), 0));
  EXPECT_EQ(stats.counter_value("mem.write_coalesced"), 1u);
  EXPECT_EQ(c->write_queue_depth(), 1u);
}

TEST_F(ControllerTest, ReadQueueCapacityEnforced) {
  ControllerConfig cfg;
  cfg.refresh = RefreshScheme::kNoRefresh;
  cfg.sched.read_queue_capacity = 4;
  auto c = make(cfg);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(c->can_accept(ReqType::kRead));
    ASSERT_TRUE(c->enqueue(read_req(0x100 * (i + 1), 0, 0, i), 0));
  }
  EXPECT_FALSE(c->can_accept(ReqType::kRead));
  EXPECT_FALSE(c->enqueue(read_req(0x9999, 0, 0, 7), 0));
}

TEST_F(ControllerTest, AutoRefreshIssuesOnCadence) {
  auto c = make();  // refresh enabled, baseline policy
  const Cycle horizon = 5 * t.tREFI;
  run_until(*c, 0, horizon, [] { return false; });
  // Boundaries at tREFI, ..., 4 x tREFI inside the horizon (the first
  // tREFI interval must elapse before a refresh comes due).
  EXPECT_EQ(c->refresh_manager().issued(0), 4u);
  EXPECT_EQ(stats.counter_value("mem.refreshes"), 4u);
}

TEST_F(ControllerTest, NoRefreshModeNeverRefreshes) {
  ControllerConfig cfg;
  cfg.refresh = RefreshScheme::kNoRefresh;
  auto c = make(cfg);
  run_until(*c, 0, 3 * t.tREFI, [] { return false; });
  EXPECT_EQ(stats.counter_value("mem.refreshes"), 0u);
}

TEST_F(ControllerTest, BaselineBlocksDemandDuringRefresh) {
  auto c = make();
  // Enqueue right at the first refresh boundary (tREFI): the read must
  // wait out tRFC.
  const Cycle boundary = t.tREFI;
  ASSERT_TRUE(c->enqueue(read_req(0x5000, 0, 0, 3), boundary));
  std::vector<Request> done;
  run_until(*c, boundary, boundary + 3000, [&] {
    auto d = c->drain_completed();
    done.insert(done.end(), d.begin(), d.end());
    return !done.empty();
  });
  ASSERT_EQ(done.size(), 1u);
  EXPECT_GE(done[0].completion, boundary + static_cast<Cycle>(t.tRFC));
}

TEST_F(ControllerTest, RankLockedAndUnavailableTrackPhases) {
  auto c = make();
  EXPECT_FALSE(c->rank_locked(0));
  c->tick(t.tREFI);  // refresh due at tREFI: baseline seals immediately
  // Either the REF went out on the first tick (rank refreshing) or the
  // rank is sealing; both count as unavailable.
  EXPECT_TRUE(c->rank_unavailable(0));
}

/// Listener that records the hook sequence.
class RecordingListener final : public ControllerListener {
 public:
  std::optional<Cycle> on_enqueue(const Request& req, Cycle) override {
    enqueued.push_back(req.line_addr);
    return std::nullopt;
  }
  void on_demand_serviced(const Request& req, Cycle) override {
    serviced.push_back(req.line_addr);
  }
  void on_rank_locked(RankId rank, Cycle now) override {
    locks.emplace_back(rank, now);
  }
  void on_refresh_issued(RankId rank, Cycle start, Cycle done) override {
    refreshes.emplace_back(rank, start);
    EXPECT_GT(done, start);
  }
  void on_prefetch_filled(const Request& req, Cycle) override {
    fills.push_back(req.line_addr);
  }
  void on_tick(Cycle) override { ++ticks; }

  std::vector<Address> enqueued, serviced, fills;
  std::vector<std::pair<RankId, Cycle>> locks, refreshes;
  std::uint64_t ticks = 0;
};

TEST_F(ControllerTest, ListenerSeesLockBeforeRefresh) {
  ControllerConfig cfg;
  cfg.refresh = RefreshScheme::kRop;
  auto c = make(cfg);
  RecordingListener listener;
  c->set_listener(&listener);
  run_until(*c, 0, 2 * t.tREFI, [] { return false; });
  ASSERT_GE(listener.refreshes.size(), 1u);
  ASSERT_GE(listener.locks.size(), 1u);
  EXPECT_LE(listener.locks[0].second, listener.refreshes[0].second);
  EXPECT_GT(listener.ticks, 0u);
}

TEST_F(ControllerTest, PrefetchFillsFlowThroughListener) {
  ControllerConfig cfg;
  cfg.refresh = RefreshScheme::kNoRefresh;
  auto c = make(cfg);
  RecordingListener listener;
  c->set_listener(&listener);
  Request pf = read_req(0x7000, 0, 0, 9, 2);
  pf.type = ReqType::kPrefetch;
  ASSERT_TRUE(c->enqueue_prefetch(pf, 0));
  run_until(*c, 0, 1000, [&] { return listener.fills.size() == 1; });
  ASSERT_EQ(listener.fills.size(), 1u);
  EXPECT_EQ(listener.fills[0], 0x7000u);
  // Prefetch fills never surface as completed demand.
  EXPECT_TRUE(c->drain_completed().empty());
}

TEST_F(ControllerTest, StalePrefetchFillDropped) {
  ControllerConfig cfg;
  cfg.refresh = RefreshScheme::kNoRefresh;
  auto c = make(cfg);
  RecordingListener listener;
  c->set_listener(&listener);
  Request pf = read_req(0x8000, 0, 0, 9, 2);
  pf.type = ReqType::kPrefetch;
  ASSERT_TRUE(c->enqueue_prefetch(pf, 0));
  // Keep the read queue non-empty so the write can never issue: writes are
  // only scheduled when no read work exists. The prefetch still slips into
  // command-bus gaps left by the paced read stream.
  Cycle now = 0;
  bool write_sent = false;
  for (; now < 4000 && listener.fills.empty() &&
         stats.counter_value("rop.prefetch_dropped_stale") == 0;
       ++now) {
    if (now % 6 == 0 && c->can_accept(ReqType::kRead)) {
      c->enqueue(read_req(0x100000 + (now << 6), 0, 2, 1,
                          static_cast<ColumnId>(now / 6 % 128)),
                 now);
    }
    if (!write_sent && stats.counter_value("rop.prefetch_issued") == 1) {
      // Prefetch is in flight: the write to the same line supersedes it.
      ASSERT_TRUE(c->enqueue(write_req(0x8000, 0, 1, 1), now));
      write_sent = true;
    }
    c->tick(now);
    c->drain_completed();
  }
  EXPECT_TRUE(write_sent);
  EXPECT_TRUE(listener.fills.empty());
  EXPECT_EQ(stats.counter_value("rop.prefetch_dropped_stale"), 1u);
}

// Companion to StalePrefetchFillDropped: once the fill is dropped, a read
// to the line must see the newest data via write-forwarding — it can never
// be SRAM-served, because no fill was ever delivered to the buffer.
TEST_F(ControllerTest, ReadAfterStaleDropForwardsNeverSramServed) {
  ControllerConfig cfg;
  cfg.refresh = RefreshScheme::kNoRefresh;
  auto c = make(cfg);
  RecordingListener listener;
  c->set_listener(&listener);
  Request pf = read_req(0x8000, 0, 0, 9, 2);
  pf.type = ReqType::kPrefetch;
  ASSERT_TRUE(c->enqueue_prefetch(pf, 0));
  Cycle now = 0;
  bool write_sent = false;
  for (; now < 4000 &&
         stats.counter_value("rop.prefetch_dropped_stale") == 0;
       ++now) {
    if (now % 6 == 0 && c->can_accept(ReqType::kRead)) {
      c->enqueue(read_req(0x100000 + (now << 6), 0, 2, 1,
                          static_cast<ColumnId>(now / 6 % 128)),
                 now);
    }
    if (!write_sent && stats.counter_value("rop.prefetch_issued") == 1) {
      ASSERT_TRUE(c->enqueue(write_req(0x8000, 0, 1, 1), now));
      write_sent = true;
    }
    c->tick(now);
    c->drain_completed();
  }
  ASSERT_EQ(stats.counter_value("rop.prefetch_dropped_stale"), 1u);
  EXPECT_TRUE(listener.fills.empty());
  // The superseding write is still queued (reads starve it), so the read
  // forwards from the write queue at enqueue time.
  ASSERT_TRUE(c->enqueue(read_req(0x8000, 0, 1, 1), now));
  const auto done = c->drain_completed();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].line_addr, 0x8000u);
  EXPECT_EQ(done[0].serviced_by, ServicedBy::kWriteForward);
}

// Writes are posted and leave the write index the moment their WR command
// issues. A write to the same line arriving while the older one is mid-issue
// (burst still on the bus) must become a NEW queue entry, not coalesce into
// a no-longer-queued write — otherwise its data would be silently lost.
TEST_F(ControllerTest, WriteAfterOlderWriteIssuedIsNotCoalesced) {
  ControllerConfig cfg;
  cfg.refresh = RefreshScheme::kNoRefresh;
  auto c = make(cfg);
  ASSERT_TRUE(c->enqueue(write_req(0x9000, 0, 0, 3), 0));
  Cycle now = 0;
  for (; now < 2000 && stats.counter_value("mem.writes_issued") == 0; ++now) {
    c->tick(now);
  }
  ASSERT_EQ(stats.counter_value("mem.writes_issued"), 1u);
  // Older write just issued; the line is no longer queued.
  ASSERT_TRUE(c->enqueue(write_req(0x9000, 0, 0, 3), now));
  EXPECT_EQ(stats.counter_value("mem.write_coalesced"), 0u);
  EXPECT_EQ(c->write_queue_depth(), 1u);
  for (; now < 4000 && !c->idle(); ++now) c->tick(now);
  EXPECT_EQ(stats.counter_value("mem.writes_issued"), 2u);
}

TEST_F(ControllerTest, CompleteMatchingReadsServicesQueued) {
  ControllerConfig cfg;
  cfg.refresh = RefreshScheme::kNoRefresh;
  auto c = make(cfg);
  ASSERT_TRUE(c->enqueue(read_req(0xA000, 0, 0, 1), 0));
  ASSERT_TRUE(c->enqueue(read_req(0xB000, 0, 0, 2), 0));
  c->complete_matching_reads(0, [](const Request& r) -> std::optional<Cycle> {
    return r.line_addr == 0xA000 ? std::optional<Cycle>(42) : std::nullopt;
  });
  const auto done = c->drain_completed();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].line_addr, 0xA000u);
  EXPECT_EQ(done[0].completion, 42u);
  EXPECT_EQ(done[0].serviced_by, ServicedBy::kSramBuffer);
  EXPECT_EQ(c->read_queue_depth(), 1u);
}

TEST_F(ControllerTest, RequestConservationUnderLoad) {
  // Every accepted read completes exactly once, even across refreshes.
  auto c = make();
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  Cycle now = 0;
  Rng rng(1);
  for (; now < 4 * t.tREFI; ++now) {
    if (now % 7 == 0 && c->can_accept(ReqType::kRead)) {
      const RowId row = static_cast<RowId>(rng.next_below(4));
      const BankId bank = static_cast<BankId>(rng.next_below(8));
      if (c->enqueue(read_req((now << 6) | 1, 0, bank, row), now)) ++accepted;
    }
    c->tick(now);
    completed += c->drain_completed().size();
  }
  for (; completed < accepted && now < 10 * t.tREFI; ++now) {
    c->tick(now);
    completed += c->drain_completed().size();
  }
  EXPECT_EQ(completed, accepted);
  c->finalize(now);
}

// ---------------------------------------------------------------------------
// Snapshot round trip of a bare controller. The split suites cut whole runs
// at fixed fractions of their length, which may land where no rank holds
// any refresh state; these cut each scheme where its per-rank state is
// live, and require the loaded record and the next 2,000 ticks to match.

/// Every field of a rank's record, primary and derived, as text.
std::string describe(const RankState& s) {
  std::ostringstream os;
  os << "phase " << static_cast<int>(s.phase) << " locked_at " << s.locked_at
     << " last_arrival " << s.last_arrival << " remaining " << s.remaining
     << " started " << s.started << " opened " << s.window_opened
     << " next_bank " << s.next_bank << " darp_mask " << s.darp_round_mask
     << " writes " << s.writes << " prefetches " << s.queued_prefetches << "/"
     << s.inflight_prefetches << " drain " << s.drain_pending << " reads";
  for (const RequestIndex idx : s.reads) os << " " << idx;
  for (const BankRecord& b : s.banks) {
    os << " | sub " << b.next_sub << " r " << b.reads << " w " << b.writes;
  }
  return os.str();
}

class ControllerSnapshotTest : public ControllerTest {
 protected:
  ControllerSnapshotTest() { org.ranks = 2; }

  /// One cycle of a fixed demand stream (a read, or one time in four a
  /// write, every `period` cycles to a random rank, bank and row spread
  /// over the subarrays), then one tick.
  void step(Controller& c, Cycle now, Rng& rng, std::vector<Request>* done) {
    if (now % period == 0) {
      const auto rank = static_cast<RankId>(rng.next_below(org.ranks));
      const auto bank = static_cast<BankId>(rng.next_below(org.banks));
      const auto row = static_cast<RowId>(rng.next_below(8) * (org.rows / 8) +
                                          rng.next_below(4));
      const bool write = rng.next_below(4) == 0;
      const Address line = (Address{rank} << 40) | (Address{bank} << 32) |
                           (Address{row} << 8) | rng.next_below(16);
      Request req = write ? write_req(line, rank, bank, row)
                          : read_req(line, rank, bank, row);
      req.id = now;  // both controllers of a round trip see the same ids
      if (c.can_accept(req.type)) c.enqueue(req, now);
    }
    c.tick(now);
    for (const Request& r : c.drain_completed()) done->push_back(r);
  }

  Cycle period = 3;

  /// Run `cfg` until `reached`, save the controller, load it into a fresh
  /// one, and compare the records and the next 2,000 ticks.
  void round_trip(ControllerConfig cfg,
                  const std::function<bool(const Controller&)>& reached) {
    auto saved = make(cfg);
    Rng rng(7);
    std::vector<Request> done_saved;
    Cycle now = 0;
    for (; now < 40 * t.tREFI && !reached(*saved); ++now) {
      step(*saved, now, rng, &done_saved);
    }
    ASSERT_TRUE(reached(*saved)) << "state not reached by cycle " << now;

    snap::Writer w;
    w.field(*saved);
    const std::string bytes = w.take();
    StatRegistry loaded_stats;
    Controller loaded(0, t, org, cfg, &loaded_stats);
    snap::Reader r(bytes);
    r.field(loaded);
    ASSERT_TRUE(r.at_end());
    for (RankId k = 0; k < org.ranks; ++k) {
      EXPECT_EQ(describe(loaded.rank_state(k)),
                describe(saved->rank_state(k)))
          << "rank " << k;
    }

    telemetry::TraceConfig tc;
    tc.categories = telemetry::kCatCmds | telemetry::kCatRefresh;
    telemetry::TraceSink trace_saved(tc);
    telemetry::TraceSink trace_loaded(tc);
    saved->set_trace(&trace_saved);
    loaded.set_trace(&trace_loaded);
    Rng rng_loaded = rng;
    std::vector<Request> after_saved;
    std::vector<Request> after_loaded;
    for (const Cycle end = now + 2000; now < end; ++now) {
      step(*saved, now, rng, &after_saved);
      step(loaded, now, rng_loaded, &after_loaded);
    }
    EXPECT_GT(trace_saved.size(), 0u);
    EXPECT_EQ(trace_loaded.format_recent(trace_loaded.size()),
              trace_saved.format_recent(trace_saved.size()));
    ASSERT_EQ(after_loaded.size(), after_saved.size());
    for (std::size_t i = 0; i < after_saved.size(); ++i) {
      EXPECT_EQ(after_loaded[i].id, after_saved[i].id);
      EXPECT_EQ(after_loaded[i].completion, after_saved[i].completion);
    }
    for (RankId k = 0; k < org.ranks; ++k) {
      EXPECT_EQ(describe(loaded.rank_state(k)),
                describe(saved->rank_state(k)))
          << "rank " << k << " after 2000 ticks";
    }
  }
};

TEST_F(ControllerSnapshotTest, RopRankDraining) {
  ControllerConfig cfg;
  cfg.refresh = RefreshScheme::kRop;
  round_trip(cfg, [](const Controller& c) {
    const RankState& s = c.rank_state(1);
    return s.phase == RefreshPhase::kDraining && s.drain_pending > 0;
  });
}

TEST_F(ControllerSnapshotTest, PausingRefreshInProgress) {
  ControllerConfig cfg;
  cfg.refresh = RefreshScheme::kPausing;
  // Sparse demand, so a segment can run and the next arrival pause it.
  period = 20;
  round_trip(cfg, [](const Controller& c) {
    const RankState& s = c.rank_state(0);
    return s.remaining > 0 && s.window_opened && !s.started;
  });
}

TEST_F(ControllerSnapshotTest, DarpRoundMask) {
  ControllerConfig cfg;
  cfg.refresh = RefreshScheme::kDarp;
  round_trip(cfg, [](const Controller& c) {
    const RankState& s = c.rank_state(0);
    return s.darp_round_mask != 0 && c.rank_state(1).darp_round_mask != 0 &&
           !s.reads.empty();
  });
}

TEST_F(ControllerSnapshotTest, SarpCursors) {
  org.subarrays = 8;
  ControllerConfig cfg;
  cfg.refresh = RefreshScheme::kSarp;
  round_trip(cfg, [](const Controller& c) {
    const RankState& s = c.rank_state(1);
    return s.next_bank > 1 && s.banks[0].next_sub > 0 && !s.reads.empty();
  });
}

}  // namespace
}  // namespace rop::mem
