// FR-FCFS command scheduling (first-ready, first-come-first-served).
//
// Reads have priority over writes; writes are drained in batches once the
// write queue crosses a high watermark (Table III: "writes are scheduled in
// batches"). Prefetch reads are a third class that the ROP engine enqueues
// shortly before a refresh; they are serviced behind demand requests but
// coalesce with them on open rows (paper §IV-D).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
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
  int queue_id = -1;               // id of the queue the request waits in
  RequestIndex slot = kNoRequest;  // arena slot of that request
  [[nodiscard]] bool services_request() const { return cmd.is_column(); }
  bool operator==(const SchedulerPick&) const = default;
};

/// A queue the scheduler may draw from this cycle, in priority order.
/// Queues store arena indices; `id` is 0 (reads), 1 (writes) or 2
/// (prefetches), and each queue holds requests of one type.
struct QueueView {
  const std::vector<RequestIndex>* indices = nullptr;
  int id = -1;
};

/// Requests that must not be scheduled (rank refreshing, rank locked for an
/// imminent refresh, urgent pausing refresh, ...): bit r of by_queue[id]
/// masks every request to rank r in the queue with that id.
struct BlockedRanks {
  std::array<std::uint32_t, 3> by_queue{};

  bool operator==(const BlockedRanks&) const = default;
};

/// FR-FCFS over a per-bank candidate table, kept incrementally.
///
/// The scheduler mirrors every queued request in a per-(bank, queue) list
/// in the queue's own age order: the owner calls push() when a request
/// joins the back of a queue and erase() when it leaves, from wherever it
/// sits. Each list caches its first request on the bank's open row, keyed
/// by that row. From the lists, a rebuild keeps per bank only the requests
/// the FR-FCFS order could ever pick, each with its Channel::earliest_issue
/// cycle:
///   * the first unblocked row hit per column kind (RD, WR);
///   * in a closed bank (precharged or refreshing), an ACT for the first
///     unblocked request, or for every one in a bank of several subarrays,
///     where a refresh-locked subarray delays only the ACTs to its own rows;
///   * in an open bank that no viewed request (blocked or not) hits, a PRE
///     for the first unblocked request: every request there conflicts.
/// Same-bank candidates of one kind share their earliest cycle, so the
/// first one in (view priority, age) order stands for all of them. Age is
/// a per-queue sequence number, so an erase renumbers nothing.
///
/// pick(now) and horizon(now) then read the table. On frozen state
/// can_issue(cmd, t) holds exactly when earliest_issue(cmd) <= t (the
/// per-bank refresh release folded in by Channel::tick lands at the
/// entry's own earliest cycle), so the table answers every cycle until
/// something it read changes: a list, a command on the channel, the
/// blocked ranks, or the view order. sync() rebuilds then, and only then.
/// A bank's candidates depend only on its lists, its open row (or none),
/// the view order and the blocked ranks, so a rebuild chooses them anew
/// only for the banks whose lists changed or whose open row changed under
/// a command, or for every bank holding a viewed request when the view
/// order or the blocked ranks changed. Choosing walks a list only when the
/// list or the open row changed since its last walk (or, in a closed bank
/// of several subarrays, for its ACT per request); otherwise it reads the
/// cached first hit and the list fronts. After a command every kept
/// candidate is re-timed with Channel::earliest_issue.
///
/// scan() resets the lists from the views and rebuilds: the from-scratch
/// reference that the controller's table audit compares against.
class Scheduler {
 public:
  /// Binds the scheduler to `channel` and `arena`, which must outlive it.
  /// The lists are sized from the channel's bank count on first use.
  Scheduler(const dram::Channel& channel, const RequestArena& arena)
      : channel_(channel), arena_(arena) {}

  /// The request in arena slot `idx` joined the back of queue `queue_id`.
  void push(int queue_id, RequestIndex idx);
  /// The request in arena slot `idx` left its queue.
  void erase(RequestIndex idx);
  /// Replace every list with the contents of `queues`.
  void reset(std::span<const QueueView> queues);

  /// Bring the table up to date for `queues` (in priority order) and
  /// `blocked`: rebuild it when a list, the view order, the blocked ranks
  /// or the channel's command count changed since the last rebuild.
  void sync(std::span<const QueueView> queues, const BlockedRanks& blocked) {
    if (changed_ || views_key(queues) != views_key_ || !(blocked == blocked_) ||
        channel_.events().total() != commands_) {
      rebuild(queues, blocked);
    }
  }
  /// reset(queues), then rebuild.
  void scan(std::span<const QueueView> queues, const BlockedRanks& blocked);

  /// The command FR-FCFS issues at `now` on the synced state: the oldest
  /// (queue priority, then age) row hit whose column command is issuable,
  /// otherwise the oldest issuable ACT or PRE.
  [[nodiscard]] std::optional<SchedulerPick> pick(Cycle now) const {
    if (now < min_earliest_) return std::nullopt;
    const Candidate* column = nullptr;
    const Candidate* row = nullptr;
    for (const Candidate& c : table_) {
      if (c.earliest > now) continue;
      const Candidate*& best = c.cmd.is_column() ? column : row;
      if (best == nullptr || c.order < best->order) best = &c;
    }
    const Candidate* chosen = column != nullptr ? column : row;
    if (chosen == nullptr) return std::nullopt;
    return SchedulerPick{chosen->cmd, chosen->queue_id, chosen->slot};
  }

  /// Earliest cycle > `now` at which pick() could return a command on the
  /// synced state, or kNeverCycle when no unblocked request can ever issue
  /// without other state changing first (blocked requests wait on separate
  /// controller events: refresh completion, seal/REF transitions). A
  /// candidate already issuable clamps to now + 1: one command leaves per
  /// cycle, so a second ready one waits its turn.
  [[nodiscard]] Cycle horizon(Cycle now) const {
    return min_earliest_ == kNeverCycle ? kNeverCycle
                                        : std::max(min_earliest_, now + 1);
  }

 private:
  static constexpr RowId kNoRow = ~RowId{0};

  /// One pickable command, cache-line sized and aligned (one candidate per
  /// line).
  struct alignas(64) Candidate {
    dram::Command cmd;
    Cycle earliest = kNeverCycle;  // Channel::earliest_issue(cmd)
    std::uint64_t order = 0;       // view index, then sequence number
    RequestIndex slot = kNoRequest;
    std::uint32_t bank = 0;  // index into banks_
    int queue_id = -1;
  };
  /// A queued request's place in its list, indexed by arena slot, with
  /// the fields a list walk reads: a candidate reads its arena slot only
  /// when it is added.
  struct Node {
    std::uint64_t seq = 0;  // per-queue age
    RowId row = 0;
    RequestIndex prev = kNoRequest;
    RequestIndex next = kNoRequest;
    std::uint32_t bank = 0;  // index into banks_
    std::uint8_t queue = 0;
    bool write = false;  // the request is a write (WR on a row hit)
  };
  /// One queue's requests to one bank, oldest first.
  struct List {
    RequestIndex head = kNoRequest;
    RequestIndex tail = kNoRequest;
    RequestIndex hit = kNoRequest;  // first entry on hit_row
    RowId hit_row = kNoRow;         // kNoRow: `hit` not known
  };
  /// One bank's lists, line-aligned like Candidate.
  struct alignas(64) BankSlot {
    const dram::Bank* bank = nullptr;
    RankId rank = 0;
    RowId row = kNoRow;  // the open row its candidates were chosen for
    std::array<List, 3> lists{};
  };

  /// The view order as one number: the queue ids in priority order.
  static std::uint32_t views_key(std::span<const QueueView> queues) {
    std::uint32_t key = 0;
    for (const QueueView& qv : queues) {
      key = key * 4 + static_cast<std::uint32_t>(qv.id + 1);
    }
    return key;
  }

  void size_from_channel();
  void rebuild(std::span<const QueueView> queues, const BlockedRanks& blocked);
  /// Choose bank `slot`'s (banks_[index]) candidates for the viewed
  /// queues and add them to the table.
  void select(BankSlot& slot, std::uint32_t index,
              std::span<const QueueView> queues, const BlockedRanks& blocked);
  /// Add a `type` command for the request in slot `idx` (bank `bank`),
  /// queued in view `view` (id `queue_id`), with its earliest cycle.
  void add(dram::CmdType type, RequestIndex idx, std::uint32_t bank,
           std::size_t view, int queue_id);

  const dram::Channel& channel_;
  const RequestArena& arena_;
  std::uint32_t banks_per_rank_ = 0;
  std::vector<BankSlot> banks_;  // rank-major, sized on first use
  /// Per 64 banks and per queue id: bit b % 64 is set while bank b's list
  /// of that queue is non-empty. A rebuild visits only the banks holding a
  /// viewed request.
  std::vector<std::array<std::uint64_t, 3>> occupied_;
  /// Per 64 banks: bit b % 64 is set while bank b's lists changed since
  /// its candidates were chosen.
  std::vector<std::uint64_t> dirty_;
  std::vector<Node> nodes_;
  std::array<std::uint64_t, 3> next_seq_{};
  std::vector<Candidate> table_;
  Cycle min_earliest_ = kNeverCycle;
  // What the table was built from; changed_ is set by every list update.
  bool changed_ = true;
  bool reselect_all_ = true;  // the lists were reset
  std::uint32_t views_key_ = 0;
  BlockedRanks blocked_{};
  std::uint64_t commands_ = 0;
};

}  // namespace rop::mem
