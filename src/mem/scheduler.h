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
  int queue_id = -1;            // index into the QueueView span
  std::size_t request_index = 0;  // index within that queue
  [[nodiscard]] bool services_request() const { return cmd.is_column(); }
  bool operator==(const SchedulerPick&) const = default;
};

/// A queue the scheduler may draw from this cycle, in priority order.
/// Queues store arena indices; the view carries the arena to dereference
/// them. `id` is 0 (reads), 1 (writes) or 2 (prefetches).
struct QueueView {
  const RequestArena* arena = nullptr;
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

/// FR-FCFS over a per-bank candidate table.
///
/// scan() walks the queued requests once and keeps, per bank, only the
/// requests the FR-FCFS order could ever pick from the scanned state, each
/// with its Channel::earliest_issue cycle:
///   * pass 1 — the first unblocked row hit per column kind (RD, WR);
///   * pass 2 — the first unblocked request needing an ACT (one per
///     request in a bank of several subarrays, where a refresh-locked
///     subarray delays only the ACTs to its own rows), and the first
///     unblocked row conflict needing a PRE, but only when no queued
///     request (blocked or not) still hits the open row.
/// Same-bank candidates of one kind share their earliest cycle, so the
/// first one in (queue priority, age) order stands for all of them.
///
/// pick(now) and horizon(now) then read the table. On frozen state
/// can_issue(cmd, t) holds exactly when earliest_issue(cmd) <= t (the
/// per-bank refresh release folded in by Channel::tick lands at the
/// entry's own earliest cycle), so the table answers every cycle until
/// something the scan read changes: a queue, a command on the channel, the
/// blocked ranks, or the view order. The owner rescans then.
class Scheduler {
 public:
  /// Binds the scheduler to `channel`, which must outlive it. The table is
  /// sized from the channel's bank count on the first scan.
  explicit Scheduler(const dram::Channel& channel) : channel_(channel) {}

  /// Rebuild the candidate table from `queues` (in priority order) and the
  /// channel's current state.
  void scan(std::span<const QueueView> queues, const BlockedRanks& blocked);

  /// The command FR-FCFS issues at `now` on the scanned state: the oldest
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
    return SchedulerPick{chosen->cmd, chosen->queue_id, chosen->position};
  }

  /// Earliest cycle > `now` at which pick() could return a command on the
  /// scanned state, or kNeverCycle when no unblocked request can ever issue
  /// without other state changing first (blocked requests wait on separate
  /// controller events: refresh completion, seal/REF transitions). A
  /// candidate already issuable clamps to now + 1: one command leaves per
  /// cycle, so a second ready one waits its turn.
  [[nodiscard]] Cycle horizon(Cycle now) const {
    return min_earliest_ == kNeverCycle ? kNeverCycle
                                        : std::max(min_earliest_, now + 1);
  }

 private:
  /// One pickable command, cache-line sized and aligned (one candidate per
  /// line).
  struct alignas(64) Candidate {
    dram::Command cmd;
    Cycle earliest = kNeverCycle;  // Channel::earliest_issue(cmd)
    std::uint64_t order = 0;       // view index, then queue position
    std::uint32_t position = 0;    // index within the queue
    int queue_id = -1;
  };
  /// Per-bank scan state (line-aligned like Candidate), valid while
  /// `stamp` equals the scan's stamp: which candidates the bank has so far.
  struct alignas(64) BankSlot {
    const dram::Bank* bank = nullptr;
    std::uint32_t stamp = 0;
    bool read = false;
    bool write = false;
    bool act = false;
    bool conflict = false;  // a PRE candidate waits in conflicts_
    bool taker = false;     // a queued request hits the open row
  };

  void size_from_channel();

  const dram::Channel& channel_;
  std::uint32_t banks_per_rank_ = 0;
  std::vector<BankSlot> banks_;  // rank-major, sized on the first scan
  std::uint32_t stamp_ = 0;
  std::vector<Candidate> table_;
  std::vector<Candidate> conflicts_;  // PRE candidates awaiting taker bits
  Cycle min_earliest_ = kNeverCycle;
};

}  // namespace rop::mem
