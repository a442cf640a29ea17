#include "mem/shard_pool.h"

#include <algorithm>

#include "telemetry/epoch_sampler.h"

namespace rop::mem {

ShardPool::ShardPool(MemorySystem& memory)
    : memory_(memory), shared_(memory.stats()) {
  // Backstop: the sampler should already have seen the mirrored names (see
  // MemorySystem::mirror_channel_stats), but late assembly paths that skip
  // the sampler still need the shared-registry destinations for the folds.
  memory_.mirror_channel_stats();

  channels_.reserve(memory_.num_channels());
  for (ChannelId ch = 0; ch < memory_.num_channels(); ++ch) {
    channels_.push_back(ChannelState{&memory_.controller(ch), 0, 0, true});
  }

  if (memory_.per_channel_stats()) {
    for (ChannelId ch = 0; ch < memory_.num_channels(); ++ch) {
      const StatRegistry& reg = memory_.channel_stats(ch);
      for (const auto& [name, src] : reg.counters()) {
        folds_.push_back(
            CounterFold{shared_->counter_handle(name), &src, src.value()});
      }
    }
  }
}

void ShardPool::advance_all(Cycle target) {
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

void ShardPool::fold_counters() {
  for (auto& f : folds_) {
    const std::uint64_t v = f.src->value();
    f.dst->inc(v - f.prev);
    f.prev = v;
  }
}

void ShardPool::fold_epochs_through(Cycle target) {
  telemetry::EpochSampler* const s = memory_.sampler();
  if (s == nullptr || !s->enabled()) return;
  while (s->next_boundary() <= target) {
    const Cycle b = s->next_boundary();
    // The sample at boundary b reflects state strictly before cycle b:
    // run every due tick < b, publish the counter deltas, then emit.
    advance_all(b - 1);
    fold_counters();
    s->advance_to(b);
    if (s->next_boundary() <= b) break;  // closed early; no progress
  }
}

void ShardPool::advance_to(Cycle target) {
  fold_epochs_through(target);
  advance_all(target);
  advanced_to_ = target;
}

void ShardPool::sample_to(Cycle target) { fold_epochs_through(target); }

Cycle ShardPool::note_enqueue(ChannelId ch, Cycle now) {
  ChannelState& cs = channels_.at(ch);
  // The first tick that can observe an arrival stamped `now` is now + 1
  // (the naive tick(M) only sees arrivals <= M - 1).
  cs.next_due = std::min(cs.next_due, now + 1);
  cs.bound = cs.ctrl->completion_lower_bound(now);
  cs.bound_stale = false;
  return cs.bound;
}

Cycle ShardPool::next_required_boundary(Cycle pos) {
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

void ShardPool::finalize_run(Cycle end) {
  for (auto& cs : channels_) cs.ctrl->finalize(end);
  if (memory_.per_channel_stats()) {
    fold_counters();  // finalize may have moved counters (blocking settle)
    for (ChannelId ch = 0; ch < memory_.num_channels(); ++ch) {
      const StatRegistry& reg = memory_.channel_stats(ch);
      for (const auto& [name, s] : reg.scalars()) {
        shared_->scalar(name).merge(s);
      }
      for (const auto& [name, h] : reg.histograms()) {
        shared_->histogram(name, h.bucket_width(), h.num_buckets() - 1)
            .merge(h);
      }
    }
  }
  if (telemetry::EpochSampler* const s = memory_.sampler()) s->close(end);
}

}  // namespace rop::mem
