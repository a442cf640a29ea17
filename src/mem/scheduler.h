// FR-FCFS command scheduling (first-ready, first-come-first-served).
//
// Reads have priority over writes; writes are drained in batches once the
// write queue crosses a high watermark (Table III: "writes are scheduled in
// batches"). Prefetch reads are a third class that the ROP engine enqueues
// shortly before a refresh; they are serviced behind demand requests but
// coalesce with them on open rows (paper §IV-D).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "dram/channel.h"
#include "dram/command.h"
#include "mem/request.h"

namespace rop::mem {

struct SchedulerConfig {
  std::size_t read_queue_capacity = 64;   // Table III: 64-entry read queue
  std::size_t write_queue_capacity = 64;  // Table III: 64-entry write queue
  std::size_t write_drain_high = 48;      // enter drain mode at this depth
  std::size_t write_drain_low = 16;       // leave drain mode at this depth
};

/// The scheduler's decision: which command to put on the command bus, and —
/// for column commands — which queued request it services.
struct SchedulerPick {
  dram::Command cmd;
  int queue_id = -1;            // index into the QueueView span
  std::size_t request_index = 0;  // index within that queue
  [[nodiscard]] bool services_request() const { return cmd.is_column(); }
};

/// A queue the scheduler may draw from this cycle, in priority order.
/// Queues store arena indices; the view carries the arena to dereference
/// them.
struct QueueView {
  const RequestArena* arena = nullptr;
  const std::vector<RequestIndex>* indices = nullptr;
  int id = -1;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig cfg) : cfg_(cfg) {}

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
  using BlockedFn = std::function<bool(const Request&, int queue_id)>;
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

namespace scheduler_detail {

inline dram::CmdType column_cmd_for(const Request& req) {
  return req.type == ReqType::kWrite ? dram::CmdType::kWrite
                                     : dram::CmdType::kRead;
}

/// True when any request in any queue would row-hit bank `coord`'s
/// currently open row (used to avoid closing rows that still have takers).
inline bool open_row_has_taker(std::span<const QueueView> queues,
                               const DramCoord& coord, RowId open_row) {
  for (const QueueView& qv : queues) {
    for (const RequestIndex ri : *qv.indices) {
      const Request& req = (*qv.arena)[ri];
      if (req.coord.rank == coord.rank && req.coord.bank == coord.bank &&
          req.coord.row == open_row) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace scheduler_detail

template <typename BlockedPred>
std::optional<SchedulerPick> Scheduler::pick(std::span<const QueueView> queues,
                                             const dram::Channel& channel,
                                             Cycle now,
                                             const BlockedPred& blocked) const {
  memo_banks_ = channel.num_ranks() > 0 ? channel.rank(0).num_banks() : 0;
  memo_.assign(std::size_t{channel.num_ranks()} * memo_banks_, BankMemo{});
  const auto memo_for = [this](const DramCoord& c) -> BankMemo& {
    return memo_[std::size_t{c.rank} * memo_banks_ + c.bank];
  };

  // Pass 1: first-ready column commands, in queue priority then age order.
  for (const QueueView& qv : queues) {
    std::size_t i = 0;
    for (const RequestIndex ri : *qv.indices) {
      const Request& req = (*qv.arena)[ri];
      const std::size_t at = i++;
      if (blocked(req, qv.id)) continue;
      const dram::Bank& bank =
          channel.rank(req.coord.rank).bank(req.coord.bank);
      if (bank.state() != dram::BankState::kActive || !bank.open_row() ||
          *bank.open_row() != req.coord.row) {
        continue;
      }
      const dram::CmdType type = scheduler_detail::column_cmd_for(req);
      BankMemo& m = memo_for(req.coord);
      Verdict& v = type == dram::CmdType::kWrite ? m.write : m.read;
      if (v == Verdict::kUnknown) {
        const dram::Command probe{type, req.coord, req.id};
        v = channel.can_issue(probe, now) ? Verdict::kYes : Verdict::kNo;
      }
      if (v == Verdict::kYes) {
        return SchedulerPick{dram::Command{type, req.coord, req.id}, qv.id,
                             at};
      }
    }
  }

  // Pass 2: row commands (ACT / PRE) for the oldest requests.
  for (const QueueView& qv : queues) {
    std::size_t i = 0;
    for (const RequestIndex ri : *qv.indices) {
      const Request& req = (*qv.arena)[ri];
      const std::size_t at = i++;
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
                qv.id, at};
          }
          break;
        }
        case dram::BankState::kActive: {
          // Row conflict: close the row, but only if nobody still wants it.
          if (bank.open_row() && *bank.open_row() != req.coord.row) {
            BankMemo& m = memo_for(req.coord);
            if (m.taker == Verdict::kUnknown) {
              m.taker = scheduler_detail::open_row_has_taker(
                            queues, req.coord, *bank.open_row())
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
                    qv.id, at};
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
Cycle Scheduler::earliest_issue_cycle(std::span<const QueueView> queues,
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
      const Request& req = (*qv.arena)[ri];
      if (blocked(req, qv.id)) continue;
      const dram::Bank& bank =
          channel.rank(req.coord.rank).bank(req.coord.bank);
      switch (bank.state()) {
        case dram::BankState::kActive:
          if (bank.open_row() && *bank.open_row() == req.coord.row) {
            // Pass-1 candidate: column command on the open row.
            const dram::CmdType type = scheduler_detail::column_cmd_for(req);
            consider(channel.earliest_issue(
                dram::Command{type, req.coord, req.id}));
          } else {
            // Pass-3 candidate: row conflict wants a PRE — but only once no
            // queued request still row-hits the open row (pick() keeps the
            // row open for takers, and takers only disappear at issue or
            // enqueue ticks, both of which recompute this scan).
            BankMemo& m = memo_for(req.coord);
            if (m.taker == Verdict::kUnknown) {
              m.taker = scheduler_detail::open_row_has_taker(
                            queues, req.coord, *bank.open_row())
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

}  // namespace rop::mem
