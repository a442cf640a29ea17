// ChannelClocks: per-channel event clocks for the memory system, the engine
// behind cpu::System's event-driven loop.
//
// Channels are independent timing domains: a controller's tick touches only
// its own channel, rank, refresh-manager, and ROP-engine state. The only
// cross-channel coupling is observational — read completions delivered to
// the cores, and the epoch sampler's counter snapshots. The clocks exploit
// that: each channel advances through its own next-event recurrence
//
//     d' = next_event_cycle(d)   after   tick(d)
//
// entirely independently, and the CPU loop only has to visit a memory
// boundary when some channel could *deliver* a completion
// (Controller::completion_lower_bound — typically CAS-latency-many cycles
// later than next_event_cycle, which also fires for internal activity like
// command issues and refresh phases). Three consequences:
//
//  * an enqueue re-arms only the target channel (note_enqueue) and lowers
//    the loop's next visit to that channel's delivery bound;
//  * between deliveries, channels that are idle are not ticked at all, and
//    busy channels batch their whole tick recurrence in one advance_to;
//  * a channel whose completions were just drained takes its next event
//    from the drained state instead of re-ticking the following cycle to
//    notice the queue is empty.
//
// Bit-identity with the naive loop (which ticks every channel at every
// boundary) follows from no-op-tick invariance: a tick at a cycle no event
// needs changes nothing, so any superset of the true event set gives the
// same run. Completions are drained at the boundary they were produced
// (advance_to(M) runs every due tick <= M, and the delivery bound
// guarantees no completion was produced in an unvisited window).
//
// Every channel records into the one shared StatRegistry. Epoch samples
// stay exact because advance_to runs every due tick < b before the sample
// at boundary b is emitted, and no tick >= b has run yet.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "mem/memory_system.h"

namespace rop::mem {

class ChannelClocks {
 public:
  explicit ChannelClocks(MemorySystem& memory);

  ChannelClocks(const ChannelClocks&) = delete;
  ChannelClocks& operator=(const ChannelClocks&) = delete;

  /// Run every due channel tick with cycle <= target, emitting each epoch
  /// sample crossed on the way. Called once per visited memory window;
  /// monotone targets only.
  void advance_to(Cycle target);

  /// Run every due channel tick with cycle <= target, emitting only the
  /// epoch samples those ticks pass: a sample at a boundary after the
  /// last tick waits for the next visit, as in the naive loop, so it also
  /// sees what the cores do before then (a functional window's LLC
  /// traffic).
  void catch_up(Cycle target);

  /// Emit epoch samples at boundaries <= target without advancing past
  /// already-due work (end of run: the sample at the final boundary sees
  /// no further tick).
  void sample_to(Cycle target);

  /// A request was accepted by channel `ch` at memory cycle `now`: its
  /// first observing tick is now + 1. Returns the channel's fresh delivery
  /// bound (completion_lower_bound(now)), which the caller folds into its
  /// next visit.
  Cycle note_enqueue(ChannelId ch, Cycle now);

  /// Earliest memory cycle > pos at which any channel could hold a
  /// deliverable completion: the event loop's next required visit.
  /// Conservative-early; exact per-channel bounds are cached and only
  /// recomputed after the channel ticked or accepted a request.
  [[nodiscard]] Cycle next_required_boundary(Cycle pos);

  /// Drain completed demand reads, channels in order. Call right after
  /// advance_to(M): a channel holding completions has ticked every cycle
  /// up to M (completions keep its clock at d + 1), so its next event is
  /// recomputed from the drained state at M.
  template <typename Fn>
  void for_each_completed(Fn&& fn) {
    for (auto& cs : channels_) {
      if (!cs.ctrl->has_completed()) continue;
      ROP_ASSERT(cs.next_due == advanced_to_ + 1);
      cs.ctrl->drain_completed_into(fn);
      cs.next_due = cs.ctrl->next_event_cycle(advanced_to_);
    }
  }

  /// Snapshot serialization: the per-channel event clocks (next_due).
  /// Cached delivery bounds are recomputed (marked stale).
  template <class Ar>
  void io(Ar& ar) {
    for (auto& cs : channels_) {
      ar.field(cs.next_due);
      if constexpr (Ar::kIsReader) cs.bound_stale = true;
    }
  }

 private:
  struct ChannelState {
    Controller* ctrl = nullptr;
    /// Next cycle whose tick must execute (the per-channel event clock);
    /// kNeverCycle parks the channel until note_enqueue re-arms it.
    Cycle next_due = 0;
    /// Cached completion_lower_bound; valid while the channel neither
    /// ticked nor accepted a request since it was computed.
    Cycle bound = 0;
    bool bound_stale = true;
  };

  void advance_all(Cycle target);

  MemorySystem& memory_;
  std::vector<ChannelState> channels_;
  /// Target of the last advance_to: the cycle for_each_completed drains at.
  Cycle advanced_to_ = 0;
};

}  // namespace rop::mem
