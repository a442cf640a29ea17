// FR-FCFS scheduler tests (arena-backed queues).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "mem/scheduler.h"

namespace rop::mem {
namespace {

// ---------------------------------------------------------------------------
// Reference: the two-pass FR-FCFS scheduler the candidate table replaced,
// kept as the oracle of the differential tests below. pick() and
// earliest_issue_cycle() rescan every queued request of `arena` on every
// call.

class TwoPassScheduler {
 public:
  TwoPassScheduler(SchedulerConfig cfg, const RequestArena& arena)
      : cfg_(cfg), arena_(arena) {}

  [[nodiscard]] const SchedulerConfig& config() const { return cfg_; }

  /// Choose the next command. `blocked(request, queue_id)` masks requests
  /// that must not be scheduled this cycle (rank refreshing, rank locked
  /// for an imminent refresh, post-lock arrivals during a drain, ...).
  ///
  /// Selection order:
  ///   1. the oldest request (scanning queues in priority order) whose
  ///      column command is issuable right now (row hit, "first ready"),
  ///   2. otherwise the oldest request that needs an ACT that is issuable,
  ///   3. otherwise the oldest request that needs a PRE (row conflict) that
  ///      is issuable — unless a same-priority request still row-hits the
  ///      open row (keep the row open for it).
  template <typename BlockedPred>
  [[nodiscard]] std::optional<SchedulerPick> pick(
      std::span<const QueueView> queues, const dram::Channel& channel,
      Cycle now, const BlockedPred& blocked) const;

  /// Earliest cycle > `now` at which pick() over the same (frozen) queues
  /// could return a command, or kNeverCycle when no unblocked request can
  /// ever issue without other state changing first. Mirrors pick()'s
  /// candidate enumeration exactly — including the keep-row-open taker
  /// rule, which must not be over-approximated: treating a taker-suppressed
  /// PRE as a candidate would yield a perpetually-past cycle and degrade
  /// the event loop to per-cycle ticking. Blocked requests are skipped;
  /// their unblock points (refresh completion, seal/REF transitions) are
  /// separate controller events. Returns as soon as a candidate at
  /// `now + 1` is found.
  template <typename BlockedPred>
  [[nodiscard]] Cycle earliest_issue_cycle(std::span<const QueueView> queues,
                                           const dram::Channel& channel,
                                           Cycle now,
                                           const BlockedPred& blocked) const;

 private:
  SchedulerConfig cfg_;
  const RequestArena& arena_;

  // Channel state is frozen for the duration of one pick() call, and bank
  // command legality barely depends on which request asked: pass-1 column
  // candidates all target the bank's open row, and PRE legality ignores the
  // row entirely, as does ACT legality in a bank of one subarray. One cached
  // verdict per (bank, command kind) therefore answers every same-bank
  // candidate, collapsing the O(queue) can_issue scans that dominate
  // saturated-queue cycles where nothing can issue. The exception is ACT in
  // a bank of several subarrays: a refresh-locked subarray vetoes only ACTs
  // to its own rows, so those ACT verdicts are not cached.
  enum class Verdict : std::uint8_t { kUnknown = 0, kYes, kNo };
  struct BankMemo {
    Verdict read = Verdict::kUnknown;
    Verdict write = Verdict::kUnknown;
    Verdict act = Verdict::kUnknown;
    Verdict pre = Verdict::kUnknown;
    Verdict taker = Verdict::kUnknown;  // open row still has a queued hit?
  };
  mutable std::vector<BankMemo> memo_;  // scratch, valid within one pick()
  mutable std::uint32_t memo_banks_ = 0;
};

namespace two_pass_detail {

inline dram::CmdType column_cmd_for(const Request& req) {
  return req.type == ReqType::kWrite ? dram::CmdType::kWrite
                                     : dram::CmdType::kRead;
}

/// True when any request in any queue would row-hit bank `coord`'s
/// currently open row (used to avoid closing rows that still have takers).
inline bool open_row_has_taker(const RequestArena& arena,
                               std::span<const QueueView> queues,
                               const DramCoord& coord, RowId open_row) {
  for (const QueueView& qv : queues) {
    for (const RequestIndex ri : *qv.indices) {
      const Request& req = arena[ri];
      if (req.coord.rank == coord.rank && req.coord.bank == coord.bank &&
          req.coord.row == open_row) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace two_pass_detail

template <typename BlockedPred>
std::optional<SchedulerPick> TwoPassScheduler::pick(
    std::span<const QueueView> queues, const dram::Channel& channel,
    Cycle now, const BlockedPred& blocked) const {
  memo_banks_ = channel.num_ranks() > 0 ? channel.rank(0).num_banks() : 0;
  memo_.assign(std::size_t{channel.num_ranks()} * memo_banks_, BankMemo{});
  const auto memo_for = [this](const DramCoord& c) -> BankMemo& {
    return memo_[std::size_t{c.rank} * memo_banks_ + c.bank];
  };

  // Pass 1: first-ready column commands, in queue priority then age order.
  for (const QueueView& qv : queues) {
    for (const RequestIndex ri : *qv.indices) {
      const Request& req = arena_[ri];
      if (blocked(req, qv.id)) continue;
      const dram::Bank& bank =
          channel.rank(req.coord.rank).bank(req.coord.bank);
      if (bank.state() != dram::BankState::kActive || !bank.open_row() ||
          *bank.open_row() != req.coord.row) {
        continue;
      }
      const dram::CmdType type = two_pass_detail::column_cmd_for(req);
      BankMemo& m = memo_for(req.coord);
      Verdict& v = type == dram::CmdType::kWrite ? m.write : m.read;
      if (v == Verdict::kUnknown) {
        const dram::Command probe{type, req.coord, req.id};
        v = channel.can_issue(probe, now) ? Verdict::kYes : Verdict::kNo;
      }
      if (v == Verdict::kYes) {
        return SchedulerPick{dram::Command{type, req.coord, req.id}, qv.id,
                             ri};
      }
    }
  }

  // Pass 2: row commands (ACT / PRE) for the oldest requests.
  for (const QueueView& qv : queues) {
    for (const RequestIndex ri : *qv.indices) {
      const Request& req = arena_[ri];
      if (blocked(req, qv.id)) continue;
      const dram::Bank& bank =
          channel.rank(req.coord.rank).bank(req.coord.bank);
      switch (bank.state()) {
        case dram::BankState::kPrecharged: {
          const bool cached = bank.subarrays() <= 1;
          Verdict v = cached ? memo_for(req.coord).act : Verdict::kUnknown;
          if (v == Verdict::kUnknown) {
            const dram::Command probe{dram::CmdType::kActivate, req.coord,
                                      req.id};
            v = channel.can_issue(probe, now) ? Verdict::kYes : Verdict::kNo;
            if (cached) memo_for(req.coord).act = v;
          }
          if (v == Verdict::kYes) {
            return SchedulerPick{
                dram::Command{dram::CmdType::kActivate, req.coord, req.id},
                qv.id, ri};
          }
          break;
        }
        case dram::BankState::kActive: {
          // Row conflict: close the row, but only if nobody still wants it.
          if (bank.open_row() && *bank.open_row() != req.coord.row) {
            BankMemo& m = memo_for(req.coord);
            if (m.taker == Verdict::kUnknown) {
              m.taker = two_pass_detail::open_row_has_taker(
                            arena_, queues, req.coord, *bank.open_row())
                            ? Verdict::kYes
                            : Verdict::kNo;
            }
            if (m.taker == Verdict::kNo) {
              if (m.pre == Verdict::kUnknown) {
                const dram::Command probe{dram::CmdType::kPrecharge,
                                          req.coord, 0};
                m.pre = channel.can_issue(probe, now) ? Verdict::kYes
                                                      : Verdict::kNo;
              }
              if (m.pre == Verdict::kYes) {
                return SchedulerPick{
                    dram::Command{dram::CmdType::kPrecharge, req.coord, 0},
                    qv.id, ri};
              }
            }
          }
          break;
        }
        case dram::BankState::kRefreshing:
          break;
      }
    }
  }
  return std::nullopt;
}

template <typename BlockedPred>
Cycle TwoPassScheduler::earliest_issue_cycle(std::span<const QueueView> queues,
                                      const dram::Channel& channel, Cycle now,
                                      const BlockedPred& blocked) const {
  memo_banks_ = channel.num_ranks() > 0 ? channel.rank(0).num_banks() : 0;
  memo_.assign(std::size_t{channel.num_ranks()} * memo_banks_, BankMemo{});
  const auto memo_for = [this](const DramCoord& c) -> BankMemo& {
    return memo_[std::size_t{c.rank} * memo_banks_ + c.bank];
  };

  // Candidates already issuable (or issuable at now + 1) clamp to the very
  // next tick: at most one command leaves per cycle, so a second ready
  // candidate simply waits its turn.
  const Cycle soonest = now + 1;
  Cycle best = kNeverCycle;
  const auto consider = [&best, soonest](Cycle c) {
    if (c != kNeverCycle) best = std::min(best, std::max(c, soonest));
  };

  for (const QueueView& qv : queues) {
    for (const RequestIndex ri : *qv.indices) {
      const Request& req = arena_[ri];
      if (blocked(req, qv.id)) continue;
      const dram::Bank& bank =
          channel.rank(req.coord.rank).bank(req.coord.bank);
      switch (bank.state()) {
        case dram::BankState::kActive:
          if (bank.open_row() && *bank.open_row() == req.coord.row) {
            // Pass-1 candidate: column command on the open row.
            const dram::CmdType type = two_pass_detail::column_cmd_for(req);
            consider(channel.earliest_issue(
                dram::Command{type, req.coord, req.id}));
          } else {
            // Pass-3 candidate: row conflict wants a PRE — but only once no
            // queued request still row-hits the open row (pick() keeps the
            // row open for takers, and takers only disappear at issue or
            // enqueue ticks, both of which recompute this scan).
            BankMemo& m = memo_for(req.coord);
            if (m.taker == Verdict::kUnknown) {
              m.taker = two_pass_detail::open_row_has_taker(
                            arena_, queues, req.coord, *bank.open_row())
                            ? Verdict::kYes
                            : Verdict::kNo;
            }
            if (m.taker == Verdict::kNo) {
              consider(channel.earliest_issue(
                  dram::Command{dram::CmdType::kPrecharge, req.coord, 0}));
            }
          }
          break;
        case dram::BankState::kPrecharged:
        case dram::BankState::kRefreshing:
          // Pass-2 candidate: ACT (a refreshing bank releases at its
          // recorded next_activate, folded in by Bank::earliest_issue).
          consider(channel.earliest_issue(
              dram::Command{dram::CmdType::kActivate, req.coord, req.id}));
          break;
      }
      if (best <= soonest) return best;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------

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

  [[nodiscard]] static QueueView view(const std::vector<RequestIndex>& q,
                                      int id) {
    return QueueView{&q, id};
  }

  /// A scheduler bound to `ch` with its table scanned from `views`.
  [[nodiscard]] Scheduler scanned(const dram::Channel& ch,
                                  std::span<const QueueView> views,
                                  const BlockedRanks& blocked = {}) const {
    Scheduler s(ch, arena);
    s.scan(views, blocked);
    return s;
  }

  [[nodiscard]] std::optional<SchedulerPick> pick(
      const dram::Channel& ch, std::span<const QueueView> views, Cycle now,
      const BlockedRanks& blocked = {}) const {
    return scanned(ch, views, blocked).pick(now);
  }

  [[nodiscard]] Cycle horizon(const dram::Channel& ch,
                              std::span<const QueueView> views, Cycle now,
                              const BlockedRanks& blocked = {}) const {
    return scanned(ch, views, blocked).horizon(now);
  }

  dram::DramTimings t;
  dram::DramOrganization org;
  RequestArena arena;
};

TEST_F(SchedulerTest, EmptyQueuesPickNothing) {
  dram::Channel ch(t, org);
  std::vector<RequestIndex> reads;
  QueueView views[] = {view(reads, 0)};
  EXPECT_FALSE(pick(ch, views, 0).has_value());
  EXPECT_EQ(horizon(ch, views, 0), kNeverCycle);
}

TEST_F(SchedulerTest, ClosedBankGetsActivate) {
  dram::Channel ch(t, org);
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 42);
  QueueView views[] = {view(reads, 0)};
  const auto p = pick(ch, views, 0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->cmd.type, dram::CmdType::kActivate);
  EXPECT_EQ(p->cmd.coord.row, 42u);
  EXPECT_FALSE(p->services_request());
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
  const auto p = pick(ch, views, t.tRCD);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->cmd.type, dram::CmdType::kRead);
  EXPECT_EQ(p->cmd.request, 2u);
  EXPECT_TRUE(p->services_request());
  EXPECT_EQ(p->slot, 1u);
}

TEST_F(SchedulerTest, RowConflictPrechargesWhenNoTakerRemains) {
  dram::Channel ch(t, org);
  ch.issue(dram::Command{dram::CmdType::kActivate, DramCoord{0, 0, 0, 7, 0}, 0},
           0);
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 9);
  QueueView views[] = {view(reads, 0)};
  const auto p = pick(ch, views, t.tRAS);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->cmd.type, dram::CmdType::kPrecharge);
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
  const auto p = pick(ch, views, t.tRAS);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->cmd.type, dram::CmdType::kRead);
  EXPECT_EQ(p->cmd.request, 2u);
}

TEST_F(SchedulerTest, BlockedTakerStillKeepsTheRowOpen) {
  dram::Channel ch(t, org);
  ch.issue(dram::Command{dram::CmdType::kActivate, DramCoord{0, 0, 0, 7, 0}, 0},
           0);
  // The only request hitting open row 7 sits in a masked queue; it still
  // counts as a taker, so the unmasked conflict must not close the row.
  std::vector<RequestIndex> reads;
  std::vector<RequestIndex> prefetches;
  add(reads, 1, ReqType::kRead, 0, 0, 9);
  add(prefetches, 2, ReqType::kPrefetch, 0, 0, 7);
  QueueView views[] = {view(reads, 0), view(prefetches, 2)};
  BlockedRanks prefetch_masked;
  prefetch_masked.by_queue[2] = 1u;
  EXPECT_FALSE(pick(ch, views, t.tRAS, prefetch_masked).has_value());
  EXPECT_EQ(horizon(ch, views, t.tRAS, prefetch_masked), kNeverCycle);
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
  auto p = pick(ch, views_rp, t.tRCD);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->cmd.request, 1u);

  QueueView views_pr[] = {view(prefetches, 2), view(reads, 0)};
  p = pick(ch, views_pr, t.tRCD);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->cmd.request, 2u);
}

TEST_F(SchedulerTest, BlockedPredicateMasksRequests) {
  dram::Channel ch(t, org);
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 42);
  add(reads, 2, ReqType::kRead, 1, 0, 42);
  QueueView views[] = {view(reads, 0)};
  const BlockedRanks rank0_blocked{{1u, 1u, 1u}};
  const auto p = pick(ch, views, 0, rank0_blocked);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->cmd.coord.rank, 1u);

  // With every request masked nothing can ever issue: the unblock point is
  // a separate controller event, so the scan reports "never".
  const BlockedRanks all_blocked{{~0u, ~0u, ~0u}};
  EXPECT_EQ(horizon(ch, views, 0, all_blocked), kNeverCycle);
}

TEST_F(SchedulerTest, WriteGetsWriteCommand) {
  dram::Channel ch(t, org);
  ch.issue(dram::Command{dram::CmdType::kActivate, DramCoord{0, 0, 2, 5, 0}, 0},
           0);
  std::vector<RequestIndex> writes;
  add(writes, 9, ReqType::kWrite, 0, 2, 5);
  QueueView views[] = {view(writes, 1)};
  const auto p = pick(ch, views, t.tRCD);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->cmd.type, dram::CmdType::kWrite);
  EXPECT_EQ(p->queue_id, 1);
}

// ---------------------------------------------------------------------------
// horizon(): the event-driven clock's bound must agree with pick() on frozen
// state — pick() returns nothing strictly before the reported cycle and
// returns a command exactly at it, all from one scan.

TEST_F(SchedulerTest, EarliestIssueClampsReadyCandidateToNextTick) {
  dram::Channel ch(t, org);
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 42);
  QueueView views[] = {view(reads, 0)};
  // The ACT is issuable immediately; on frozen state the next tick that can
  // act is now + 1.
  EXPECT_EQ(horizon(ch, views, 5), 6u);
}

TEST_F(SchedulerTest, EarliestIssueMatchesFirstPickForRowHit) {
  dram::Channel ch(t, org);
  ch.issue(dram::Command{dram::CmdType::kActivate, DramCoord{0, 0, 0, 7, 0}, 0},
           0);
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 7);
  QueueView views[] = {view(reads, 0)};
  const Scheduler s = scanned(ch, views);
  const Cycle when = s.horizon(0);
  EXPECT_EQ(when, Cycle{t.tRCD});
  for (Cycle c = 1; c < when; ++c) {
    EXPECT_FALSE(s.pick(c).has_value())
        << "pick() issued before the reported earliest cycle " << when
        << " at " << c;
  }
  const auto p = s.pick(when);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->cmd.type, dram::CmdType::kRead);
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
  const Scheduler s = scanned(ch, views);
  const Cycle when = s.horizon(0);
  EXPECT_EQ(when, Cycle{t.tRAS});
  for (Cycle c = 1; c < when; ++c) {
    EXPECT_FALSE(s.pick(c).has_value());
  }
  const auto p = s.pick(when);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->cmd.type, dram::CmdType::kPrecharge);
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
  const Scheduler s = scanned(ch, views);
  const Cycle when = s.horizon(0);
  EXPECT_EQ(when, Cycle{t.tRCD});
  const auto p = s.pick(when);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->cmd.type, dram::CmdType::kRead);
  EXPECT_EQ(p->cmd.request, 2u);
}

TEST_F(SchedulerTest, RefreshLockedSubarrayDoesNotVetoActToAnotherSubarray) {
  // SARP/HiRA: REFpb locks subarray 0 of bank 0. An older read to that
  // subarray cannot activate, but a younger read to subarray 1 of the same
  // bank can: pick() must return its ACT, and horizon() must agree. One
  // ACT candidate per bank taken from the older request would veto the
  // younger one, and the event loop would then re-tick a no-op every cycle
  // until the lock ended.
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
  const Scheduler s = scanned(ch, views);
  const auto p = s.pick(now);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->cmd.type, dram::CmdType::kActivate);
  EXPECT_EQ(p->cmd.request, 2u);
  EXPECT_EQ(p->cmd.coord.row, sub1_row);
  EXPECT_EQ(p->slot, 1u);
  // On frozen state, the next tick that can act is the one right after.
  EXPECT_EQ(s.horizon(now - 1), now);
}

TEST_F(SchedulerTest, RescanReplacesTheWholeTable) {
  dram::Channel ch(t, org);
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 42);
  QueueView views[] = {view(reads, 0)};
  Scheduler s = scanned(ch, views);
  ASSERT_TRUE(s.pick(0).has_value());
  reads.clear();
  s.scan(views, {});
  EXPECT_FALSE(s.pick(0).has_value());
  EXPECT_EQ(s.horizon(0), kNeverCycle);
}

// ---------------------------------------------------------------------------
// Differential test against the two-pass reference: over randomized channel
// and queue states, one scan must give the reference's pick at every cycle
// from `now` through the horizon (the channel ticking as the controller
// ticks it, so refresh locks release on their own), and the reference's
// horizon.

struct Geometry {
  std::uint32_t ranks;
  std::uint32_t subarrays;
};

class SchedulerDifferential : public ::testing::TestWithParam<Geometry> {};

/// A bank for a command or request: half the time bank 0 or 1, so the few
/// requests of a trial crowd into banks that recently took commands
/// (subarray locks, open rows) often enough to meet them there.
BankId random_bank(const dram::DramOrganization& org, Rng& rng) {
  const std::uint64_t bound = rng.next_below(2) == 0 ? 2 : org.banks;
  return static_cast<BankId>(rng.next_below(bound));
}

/// Drive `ch` through random legal commands for a few hundred cycles so
/// open rows, tRRD/tFAW windows, bus direction and rank/bank/subarray
/// refresh locks all take random values. Returns the last cycle ticked.
/// Whole-rank refreshes (REF, pausing segments) only go to banks of one
/// subarray, as in every refresh policy: the subarray-refreshing policies
/// issue REFpb only.
Cycle randomize_channel(dram::Channel& ch, const dram::DramOrganization& org,
                        Rng& rng, Cycle now) {
  const auto steps = 1 + static_cast<std::uint32_t>(rng.next_below(60));
  for (std::uint32_t k = 0; k < steps; ++k) {
    now += 1 + rng.next_below(12);
    ch.tick(now);
    const auto r = static_cast<RankId>(rng.next_below(org.ranks));
    const BankId b = random_bank(org, rng);
    const auto row = static_cast<RowId>(rng.next_below(org.rows));
    dram::Command cmd{dram::CmdType::kActivate, DramCoord{0, r, b, row, 0},
                      0};
    const std::uint64_t roll =
        rng.next_below(org.subarrays > 1 ? 92 : 100);
    if (roll < 30) {
      cmd.type = dram::CmdType::kActivate;
    } else if (roll < 50) {
      cmd.type = dram::CmdType::kPrecharge;
    } else if (roll < 80) {
      cmd.type = roll < 65 ? dram::CmdType::kRead : dram::CmdType::kWrite;
      const auto open = ch.rank(r).bank(b).open_row();
      if (open) cmd.coord.row = *open;
    } else if (roll < 92) {
      cmd.type = dram::CmdType::kRefreshBank;
    } else if (roll < 97) {
      cmd.type = dram::CmdType::kRefresh;
    } else {
      if (ch.can_issue(dram::Command{dram::CmdType::kRefresh, cmd.coord, 0},
                       now)) {
        ch.begin_refresh_segment(r, now, 20 + rng.next_below(60));
      }
      continue;
    }
    if (ch.can_issue(cmd, now)) ch.issue(cmd, now);
  }
  return now;
}

TEST_P(SchedulerDifferential, TableMatchesTwoPassReference) {
  const Geometry g = GetParam();
  const dram::DramTimings t = dram::make_ddr4_1600_timings();
  dram::DramOrganization org;
  org.ranks = g.ranks;
  org.banks = 8;
  org.rows = 64;  // few rows: frequent hits, conflicts and takers
  org.subarrays = g.subarrays;

  Rng rng(0x5eed0000u + g.ranks * 16u + g.subarrays);
  std::uint64_t cycles_compared = 0;
  std::uint64_t picks = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    dram::Channel ch(t, org);
    Cycle now = randomize_channel(ch, org, rng, 0);

    RequestArena arena;
    std::vector<RequestIndex> queues[3];
    RequestId next_id = 1;
    for (int q = 0; q < 3; ++q) {
      const std::uint64_t n = rng.next_below(q == 0 ? 12 : 6);
      for (std::uint64_t i = 0; i < n; ++i) {
        Request req;
        req.id = next_id++;
        req.type = q == 0   ? ReqType::kRead
                   : q == 1 ? ReqType::kWrite
                            : ReqType::kPrefetch;
        const auto r = static_cast<RankId>(rng.next_below(org.ranks));
        const BankId b = random_bank(org, rng);
        const auto open = ch.rank(r).bank(b).open_row();
        // Half the requests target the open row (takers), the rest a few
        // other rows spread over the subarrays.
        const RowId row = open && rng.next_below(2) == 0
                              ? *open
                              : static_cast<RowId>(rng.next_below(org.rows));
        req.coord = DramCoord{0, r, b, row, 0};
        queues[q].push_back(arena.alloc(req));
      }
    }
    // Both view orders the controller uses, plus prefetches.
    std::vector<QueueView> views;
    if (rng.next_below(2) == 0) {
      views.push_back(QueueView{&queues[1], 1});
      views.push_back(QueueView{&queues[0], 0});
    } else {
      views.push_back(QueueView{&queues[0], 0});
      if (queues[0].empty() || rng.next_below(2) == 0) {
        views.push_back(QueueView{&queues[1], 1});
      }
    }
    views.push_back(QueueView{&queues[2], 2});

    BlockedRanks blocked;
    for (std::uint32_t& mask : blocked.by_queue) {
      for (RankId r = 0; r < org.ranks; ++r) {
        if (rng.next_below(4) == 0) mask |= 1u << r;
      }
    }
    const auto blocked_fn = [&blocked](const Request& req, int queue_id) {
      const std::uint32_t mask =
          blocked.by_queue[static_cast<std::size_t>(queue_id)];
      return ((mask >> req.coord.rank) & 1u) != 0;
    };

    ch.tick(now);
    Scheduler table(ch, arena);
    table.scan(views, blocked);
    const TwoPassScheduler reference{SchedulerConfig{}, arena};
    const Cycle horizon = table.horizon(now);
    ASSERT_EQ(horizon,
              reference.earliest_issue_cycle(views, ch, now, blocked_fn))
        << "trial " << trial;
    const Cycle last =
        horizon == kNeverCycle ? now + 2 * t.tRFC : horizon;
    for (Cycle c = now; c <= last; ++c) {
      ch.tick(c);
      const auto want = reference.pick(views, ch, c, blocked_fn);
      const auto got = table.pick(c);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "trial " << trial << " cycle " << c << " (scanned at " << now
          << ")";
      ++cycles_compared;
      if (!want) continue;
      ++picks;
      EXPECT_EQ(got->cmd.type, want->cmd.type) << "trial " << trial;
      EXPECT_EQ(got->cmd.coord, want->cmd.coord) << "trial " << trial;
      EXPECT_EQ(got->cmd.request, want->cmd.request) << "trial " << trial;
      EXPECT_EQ(got->queue_id, want->queue_id) << "trial " << trial;
      EXPECT_EQ(got->slot, want->slot) << "trial " << trial;
    }
    if (horizon != kNeverCycle) {
      EXPECT_TRUE(table.pick(horizon).has_value()) << "trial " << trial;
    }
  }
  // The states must exercise both outcomes, not just empty tables.
  EXPECT_GT(picks, 100u);
  EXPECT_GT(cycles_compared, picks);
}

// Mutation-sequence differential test: one scheduler kept in step with
// its queues through push() and erase() follows a random walk over the
// controller's mutations (enqueue, issuing the pick, an SRAM service
// erasing from mid-queue, dropping a rank's prefetches) mixed with
// commands from elsewhere on the channel, view-order flips and blocked-rank
// flips. After every step its horizon must be the reference's, and its pick
// the reference's at every cycle of a window after it. The queue depth cap
// changes every 500 steps (1 to 16): in shallow queues a request the table
// missed is often the one picked, or the one that sets the horizon.
TEST_P(SchedulerDifferential, MutationSequenceMatchesTwoPassReference) {
  const Geometry g = GetParam();
  const dram::DramTimings t = dram::make_ddr4_1600_timings();
  dram::DramOrganization org;
  org.ranks = g.ranks;
  org.banks = 8;
  org.rows = 64;
  org.subarrays = g.subarrays;

  Rng rng(0x3a7e0000u + g.ranks * 16u + g.subarrays);
  dram::Channel ch(t, org);
  RequestArena arena;
  std::vector<RequestIndex> queues[3];
  Scheduler table(ch, arena);
  const TwoPassScheduler reference{SchedulerConfig{}, arena};
  bool drain = false;
  BlockedRanks blocked;
  const auto blocked_fn = [&blocked](const Request& req, int queue_id) {
    const std::uint32_t mask =
        blocked.by_queue[static_cast<std::size_t>(queue_id)];
    return ((mask >> req.coord.rank) & 1u) != 0;
  };
  // The controller's view order (Controller::scheduler_views).
  const auto views = [&]() {
    std::vector<QueueView> v;
    if (drain) {
      v.push_back(QueueView{&queues[1], 1});
      v.push_back(QueueView{&queues[0], 0});
    } else {
      v.push_back(QueueView{&queues[0], 0});
      if (queues[0].empty()) v.push_back(QueueView{&queues[1], 1});
    }
    v.push_back(QueueView{&queues[2], 2});
    return v;
  };
  const auto remove = [&](std::size_t q, std::size_t pos) {
    const RequestIndex idx = queues[q][pos];
    queues[q].erase(queues[q].begin() + static_cast<std::ptrdiff_t>(pos));
    table.erase(idx);
    arena.release(idx);
  };

  Cycle now = 0;
  RequestId next_id = 1;
  std::uint64_t issued = 0;
  std::uint64_t erased_mid = 0;
  std::uint64_t picks = 0;
  std::size_t depth = 16;
  for (int step = 0; step < 20000; ++step) {
    if (step % 500 == 0) depth = std::size_t{1} << rng.next_below(5);
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 40) {
      // Enqueue: reads, writes and prefetches, half of them on the open
      // row (takers) and the rest on a few rows over the subarrays.
      const std::uint64_t kind = rng.next_below(20);
      const std::size_t q = kind < 10 ? 0 : kind < 16 ? 1 : 2;
      if (queues[q].size() < depth) {
        Request req;
        req.id = next_id++;
        req.type = q == 0   ? ReqType::kRead
                   : q == 1 ? ReqType::kWrite
                            : ReqType::kPrefetch;
        const auto r = static_cast<RankId>(rng.next_below(org.ranks));
        const BankId b = random_bank(org, rng);
        const auto open = ch.rank(r).bank(b).open_row();
        const RowId row = open && rng.next_below(2) == 0
                              ? *open
                              : static_cast<RowId>(rng.next_below(org.rows));
        req.coord = DramCoord{0, r, b, row, 0};
        const RequestIndex idx = arena.alloc(req);
        queues[q].push_back(idx);
        table.push(static_cast<int>(q), idx);
      }
    } else if (roll < 60) {
      // Issue the pick, as Controller::issue_pick does.
      const auto v = views();
      table.sync(v, blocked);
      if (const auto p = table.pick(now)) {
        ch.issue(p->cmd, now);
        ++issued;
        if (p->services_request()) {
          const auto q = static_cast<std::size_t>(p->queue_id);
          const auto it =
              std::find(queues[q].begin(), queues[q].end(), p->slot);
          ASSERT_NE(it, queues[q].end()) << "step " << step;
          remove(q, static_cast<std::size_t>(it - queues[q].begin()));
        }
      }
    } else if (roll < 68) {
      // An SRAM buffer hit services a queued read from mid-queue.
      if (!queues[0].empty()) {
        remove(0, rng.next_below(queues[0].size()));
        ++erased_mid;
      }
    } else if (roll < 72) {
      // An urgent refresh drops one rank's queued prefetches.
      const auto r = static_cast<RankId>(rng.next_below(org.ranks));
      for (std::size_t i = queues[2].size(); i-- > 0;) {
        if (arena[queues[2][i]].coord.rank == r) remove(2, i);
      }
    } else if (roll < 84) {
      now = randomize_channel(ch, org, rng, now);
    } else if (roll < 92) {
      drain = !drain;
    } else {
      std::uint32_t& mask = blocked.by_queue[rng.next_below(3)];
      mask ^= 1u << rng.next_below(org.ranks);
    }

    now += rng.next_below(4);
    ch.tick(now);
    const auto v = views();
    table.sync(v, blocked);
    const Cycle horizon = table.horizon(now);
    ASSERT_EQ(horizon, reference.earliest_issue_cycle(v, ch, now, blocked_fn))
        << "step " << step;
    const Cycle last = std::min(horizon, now + 24);
    for (Cycle c = now; c <= last; ++c) {
      ch.tick(c);
      const auto want = reference.pick(v, ch, c, blocked_fn);
      table.sync(v, blocked);
      ASSERT_EQ(table.pick(c), want) << "step " << step << " cycle " << c;
      if (want) ++picks;
    }
    now = last;
  }
  // The walk must reach every mutation and real picks, not idle queues.
  EXPECT_GT(issued, 2000u);
  EXPECT_GT(erased_mid, 1000u);
  EXPECT_GT(picks, 20000u);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndSubarrays, SchedulerDifferential,
    ::testing::Values(Geometry{1, 1}, Geometry{2, 1}, Geometry{4, 1},
                      Geometry{1, 8}, Geometry{2, 8}, Geometry{4, 8}),
    [](const auto& param_info) {
      return "ranks" + std::to_string(param_info.param.ranks) +
             "_subarrays" + std::to_string(param_info.param.subarrays);
    });

}  // namespace
}  // namespace rop::mem
