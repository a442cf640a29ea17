// Channel model: ranks sharing a command bus and a bidirectional data bus.
//
// The controller issues at most one command per cycle per channel (command
// bus serialization); the channel enforces data-bus occupancy, rank-to-rank
// switch penalties and read/write turnaround, and tallies command counts for
// the energy model.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "dram/command.h"
#include "dram/rank.h"
#include "dram/timing.h"

namespace rop::telemetry {
class TraceSink;
}

namespace rop::dram {

/// Event counts the energy model charges per command.
struct ChannelEvents {
  std::uint64_t activates = 0;
  std::uint64_t precharges = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t refreshes = 0;       // full-rank REF commands
  std::uint64_t bank_refreshes = 0;  // per-bank REFpb commands
  std::uint64_t refresh_segments = 0;  // Refresh Pausing segments

  /// Every command and pausing segment so far. Bank, rank and bus state
  /// change only through these (and through time), so an unchanged total
  /// means unchanged command legality up to the passage of time.
  [[nodiscard]] std::uint64_t total() const {
    return activates + precharges + reads + writes + refreshes +
           bank_refreshes + refresh_segments;
  }
};

class Channel {
 public:
  Channel(const DramTimings& timings, const DramOrganization& org);

  [[nodiscard]] std::uint32_t num_ranks() const {
    return static_cast<std::uint32_t>(ranks_.size());
  }
  /// Ranks change only through the channel (issue, begin_refresh_segment,
  /// tick), which keeps the summaries below in step with them.
  [[nodiscard]] const Rank& rank(RankId r) const { return ranks_.at(r); }

  /// Ranks with a REF or pausing segment in flight: bit r is set while
  /// rank(r).refreshing().
  [[nodiscard]] std::uint32_t refreshing_ranks() const { return refreshing_; }
  /// The earliest Rank::next_release() over the ranks: the next cycle at
  /// which tick() ends a REF or a REFpb lock. kNeverCycle when none runs.
  [[nodiscard]] Cycle next_release() const { return release_; }

  /// Full legality check: bank + rank + data-bus scope.
  [[nodiscard]] bool can_issue(const Command& cmd, Cycle now) const;

  /// Earliest cycle at which `cmd` could legally issue on this channel,
  /// folding bank timing, rank constraints (tRRD/tFAW/tCCD, refresh
  /// lockout), and data-bus occupancy with switch penalties. kNeverCycle
  /// when time alone cannot make it legal from the frozen state. Exact:
  /// can_issue(cmd, c) flips from false to true at exactly the returned
  /// cycle if no other command lands in between.
  [[nodiscard]] Cycle earliest_issue(const Command& cmd) const;

  /// Issue the command; returns the cycle at which its data burst completes
  /// (reads/writes) or the command's completion cycle (REF) or `now` for
  /// ACT/PRE.
  Cycle issue(const Command& cmd, Cycle now);

  /// Begin a Refresh Pausing segment on `rank` (see Rank).
  void begin_refresh_segment(RankId rank, Cycle now, Cycle duration);

  /// Advance per-rank bookkeeping (refresh completion). One compare
  /// before next_release().
  void tick(Cycle now) {
    if (now >= release_) release(now);
  }

  void settle_accounting(Cycle now);
  [[nodiscard]] const ChannelEvents& events() const { return events_; }

  [[nodiscard]] const DramTimings& timings() const { return t_; }

  /// Attach a trace sink (nullptr detaches): issue() records every command
  /// and begin_refresh_segment() every pausing segment. The channel has no
  /// identity of its own, so the owning controller passes its id along.
  void set_trace(telemetry::TraceSink* trace, ChannelId channel_id) {
    trace_ = trace;
    trace_channel_ = channel_id;
  }
  [[nodiscard]] telemetry::TraceSink* trace() const { return trace_; }

  /// Snapshot serialization: ranks, data-bus state, and command tallies.
  /// The trace sink attachment is runtime wiring and does not ride; the
  /// rank summaries (refreshing_, release_) are rebuilt on load.
  template <class Ar>
  void io(Ar& ar) {
    // Ranks are not default-constructible (they reference the timing
    // tables), so they serialize in place; the count is fixed by config.
    for (RankId r = 0; r < ranks_.size(); ++r) {
      ar.enter("rank", r);
      ar.field(ranks_[r]);
      ar.leave();
    }
    ar(bus_busy_until_, last_bus_op_, last_bus_rank_, bus_used_,
       events_.activates, events_.precharges, events_.reads, events_.writes,
       events_.refreshes, events_.bank_refreshes, events_.refresh_segments);
    if constexpr (Ar::kIsReader) recount();
  }

 private:
  /// tick() at or past next_release(): tick every rank, then recount.
  void release(Cycle now);
  /// Recompute refreshing_ and release_ from the ranks.
  void recount();
  /// First cycle at which a new burst by `type` on `rank` may occupy the
  /// data bus.
  [[nodiscard]] Cycle data_bus_free(CmdType type, RankId rank) const;

  const DramTimings& t_;
  std::vector<Rank> ranks_;

  // Data-bus state.
  Cycle bus_busy_until_ = 0;
  CmdType last_bus_op_ = CmdType::kRead;
  RankId last_bus_rank_ = 0;
  bool bus_used_ = false;

  ChannelEvents events_;

  // Summaries of the ranks, derived (not serialized): recounted at every
  // refresh command, at each release and on load.
  std::uint32_t refreshing_ = 0;  // bit r: rank r refreshing
  Cycle release_ = kNeverCycle;   // min Rank::next_release()

  telemetry::TraceSink* trace_ = nullptr;
  ChannelId trace_channel_ = 0;
};

// Inline for the scheduler, like Bank::earliest_issue.
inline Cycle Channel::data_bus_free(CmdType type, RankId rank) const {
  if (!bus_used_) return 0;
  Cycle free = bus_busy_until_;
  // Switching drivers (rank change) or direction (read<->write) needs a
  // switch gap on top of plain occupancy.
  if (rank != last_bus_rank_ || type != last_bus_op_) free += t_.tRTRS;
  return free;
}

inline Cycle Channel::earliest_issue(const Command& cmd) const {
  Cycle when = ranks_.at(cmd.coord.rank).earliest_issue(cmd);
  if (when == kNeverCycle) return kNeverCycle;
  if (cmd.is_column()) {
    // The data burst starts CL/CWL after the command; the command must wait
    // until the bus (plus any switch gap) is free at that point.
    const Cycle lat = cmd.type == CmdType::kRead ? t_.CL : t_.CWL;
    const Cycle bus_free = data_bus_free(cmd.type, cmd.coord.rank);
    if (bus_free > lat) when = std::max(when, bus_free - lat);
  }
  return when;
}

}  // namespace rop::dram
