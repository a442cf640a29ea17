// ShardPool: per-channel event clocks for the memory system, the engine
// behind cpu::System's `--shard-channels` loop.
//
// Channels are independent timing domains: a controller's tick touches only
// its own channel, rank, refresh-manager, and ROP-engine state, and (with
// MemoryConfig::per_channel_stats) only its own StatRegistry. The only
// cross-channel coupling is observational — read completions delivered to
// the cores, and the epoch sampler's counter snapshots. The pool exploits
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
//    the loop's next visit to that channel's delivery bound, where the
//    serial loop's global mem_dirty_ re-ticks every channel at the next
//    boundary;
//  * between deliveries, channels that are idle are not ticked at all, and
//    busy channels batch their whole tick recurrence in one advance_to;
//  * a channel whose completions were just drained takes its next event
//    from the drained state, as the serial loop does, instead of re-ticking
//    the following cycle to notice the queue is empty.
//
// Bit-identity with the serial event loop follows from the no-op-tick
// invariance the determinism suite already pins (naive == event): both
// loops execute supersets of the true event set, arrivals are stamped at
// the same cycles (the CPU window structure is unchanged), and completions
// are drained at the boundary they were produced (advance_to(M) runs every
// due tick <= M, and the delivery bound guarantees no completion was
// produced in an unvisited window).
//
// Stats: with per-channel registries the pool folds counter deltas into
// the shared registry just before each epoch boundary (reproducing the
// serial sampler series exactly — no channel tick between the fold and the
// snapshot can have moved a counter) and merges scalars/histograms once at
// finalize, where Scalar's order-independent exact summation makes the
// merged values bit-identical to serial interleaved recording.
//
// Every channel advances inline on the calling thread: any
// `shard_channels > 0` selects this loop and the count itself changes
// nothing (docs/PERFORMANCE.md §7 has the measurement behind that).
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "mem/memory_system.h"

namespace rop::mem {

class ShardPool {
 public:
  /// The pool snapshots the per-channel registries at construction, so
  /// build it after the full system (engines included) has registered its
  /// stats; it mirrors the channel stat names into the shared registry as
  /// a backstop (see MemorySystem::mirror_channel_stats for why the sampler
  /// needs them earlier).
  explicit ShardPool(MemorySystem& memory);

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Run every due channel tick with cycle <= target, folding counter
  /// deltas at each epoch boundary crossed on the way. Called once per
  /// visited memory window; monotone targets only.
  void advance_to(Cycle target);

  /// Fold epoch boundaries <= target without advancing past already-due
  /// work (end-of-run: the serial loop samples the final boundary without
  /// executing another tick).
  void sample_to(Cycle target);

  /// A request was accepted by channel `ch` at memory cycle `now`: its
  /// first observing tick is now + 1. Returns the channel's fresh delivery
  /// bound (completion_lower_bound(now)), which the caller folds into its
  /// next visit.
  Cycle note_enqueue(ChannelId ch, Cycle now);

  /// Earliest memory cycle > pos at which any channel could hold a
  /// deliverable completion — the sharded loop's mem_next_event.
  /// Conservative-early; exact per-channel bounds are cached and only
  /// recomputed after the channel ticked or accepted a request.
  [[nodiscard]] Cycle next_required_boundary(Cycle pos);

  /// Drain completed demand reads, channels in order — the serial
  /// MemorySystem::for_each_completed sequence. Call right after
  /// advance_to(M): a channel holding completions has ticked every cycle
  /// up to M (completions keep its clock at d + 1), so its next event is
  /// recomputed from the drained state at M, as the serial loop does.
  template <typename Fn>
  void for_each_completed(Fn&& fn) {
    for (auto& cs : channels_) {
      if (!cs.ctrl->has_completed()) continue;
      ROP_ASSERT(cs.next_due == advanced_to_ + 1);
      cs.ctrl->drain_completed_into(fn);
      cs.next_due = cs.ctrl->next_event_cycle(advanced_to_);
    }
  }

  /// End of run: finalize every controller (channel order), fold the final
  /// counter deltas plus all scalars/histograms into the shared registry,
  /// and close the sampler — the sharded replacement for
  /// MemorySystem::finalize.
  void finalize_run(Cycle end);

  /// Snapshot serialization: the per-channel event clocks (next_due) and
  /// the counter-fold baselines. Cached delivery bounds are recomputed
  /// (marked stale). The baselines must be serialized verbatim — not
  /// resynced to the restored channel counters — because the fold
  /// invariant is `mirror_value + (src - prev) == true total`: any delta
  /// accumulated since the last fold lives only in (src - prev), and the
  /// snapshot captures mirror, src, and prev each as-is. (The
  /// construction-time priming of prev is simply overwritten here.)
  template <class Ar>
  void io(Ar& ar) {
    for (auto& cs : channels_) {
      ar.field(cs.next_due);
      if constexpr (Ar::kIsReader) cs.bound_stale = true;
    }
    for (auto& f : folds_) ar.field(f.prev);
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

  struct CounterFold {
    Counter* dst = nullptr;
    const Counter* src = nullptr;
    std::uint64_t prev = 0;
  };

  void advance_all(Cycle target);
  void fold_counters();
  void fold_epochs_through(Cycle target);

  MemorySystem& memory_;
  StatRegistry* shared_;
  std::vector<ChannelState> channels_;
  std::vector<CounterFold> folds_;
  /// Target of the last advance_to: the cycle for_each_completed drains at.
  Cycle advanced_to_ = 0;
};

}  // namespace rop::mem
