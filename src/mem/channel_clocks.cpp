#include "mem/channel_clocks.h"

#include <algorithm>

#include "telemetry/epoch_sampler.h"

namespace rop::mem {

ChannelClocks::ChannelClocks(MemorySystem& memory) : memory_(memory) {
  channels_.reserve(memory_.num_channels());
  for (ChannelId ch = 0; ch < memory_.num_channels(); ++ch) {
    channels_.push_back(ChannelState{&memory_.controller(ch), 0, 0, true});
  }
}

void ChannelClocks::advance_all(Cycle target) {
  for (auto& cs : channels_) {
    if (cs.next_due > target) continue;
    Controller& ctrl = *cs.ctrl;
    Cycle due = cs.next_due;
    do {
      ctrl.tick(due);
      due = ctrl.next_event_cycle(due);
    } while (due <= target);
    cs.next_due = due;
    cs.bound_stale = true;
  }
}

void ChannelClocks::sample_to(Cycle target) {
  telemetry::EpochSampler* const s = memory_.sampler();
  if (s == nullptr || !s->enabled()) return;
  while (s->next_boundary() <= target) {
    const Cycle b = s->next_boundary();
    // The sample at boundary b reflects state strictly before cycle b.
    advance_all(b - 1);
    s->advance_to(b);
    if (s->next_boundary() <= b) break;  // closed early; no progress
  }
}

void ChannelClocks::advance_to(Cycle target) {
  sample_to(target);
  advance_all(target);
  advanced_to_ = target;
}

void ChannelClocks::catch_up(Cycle target) {
  telemetry::EpochSampler* const s = memory_.sampler();
  for (;;) {
    Cycle first = kNeverCycle;
    for (const auto& cs : channels_) first = std::min(first, cs.next_due);
    if (first > target) break;
    // No tick precedes `first`, so every boundary <= first is due now; run
    // the ticks up to the next boundary, then look again.
    sample_to(first);
    Cycle upto = target;
    if (s != nullptr && s->enabled() && s->next_boundary() > first) {
      upto = std::min(upto, s->next_boundary() - 1);
    }
    advance_all(upto);
  }
  advanced_to_ = target;
}

Cycle ChannelClocks::note_enqueue(ChannelId ch, Cycle now) {
  ChannelState& cs = channels_.at(ch);
  // The first tick that can observe an arrival stamped `now` is now + 1
  // (the naive tick(M) only sees arrivals <= M - 1).
  cs.next_due = std::min(cs.next_due, now + 1);
  cs.bound = cs.ctrl->completion_lower_bound(now);
  cs.bound_stale = false;
  return cs.bound;
}

Cycle ChannelClocks::next_required_boundary(Cycle pos) {
  Cycle next = kNeverCycle;
  for (auto& cs : channels_) {
    // A cached bound stays a valid lower bound while the channel neither
    // ticks nor accepts a request; once <= pos it must be refreshed (the
    // caller just drained, so a fresh bound is always > pos).
    if (cs.bound_stale || cs.bound <= pos) {
      cs.bound = cs.ctrl->completion_lower_bound(pos);
      cs.bound_stale = false;
    }
    next = std::min(next, cs.bound);
  }
  return next;
}

}  // namespace rop::mem
