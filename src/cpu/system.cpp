#include "cpu/system.h"

#include <algorithm>
#include <string>

#include "telemetry/epoch_sampler.h"

namespace rop::cpu {

System::System(const SystemConfig& cfg, mem::MemorySystem& memory,
               std::vector<workload::TraceSource*> traces)
    : cfg_(cfg), memory_(memory), clocks_(memory) {
  ROP_ASSERT(!traces.empty());
  ROP_ASSERT(cfg.cpu_ratio >= 1);
  StatRegistry& reg = *memory_.stats();
  // Build only the LLC kind the run uses: one shared LLC, or one per core.
  if (cfg.shared_llc && traces.size() > 1) {
    shared_llc_ = std::make_unique<cache::Llc>(cfg.llc);
    shared_llc_->bind_stats(reg, "llc.");
  }
  cores_.reserve(traces.size());
  core_stat_handles_.reserve(traces.size());
  for (CoreId c = 0; c < traces.size(); ++c) {
    ROP_ASSERT(traces[c] != nullptr);
    cores_.push_back(std::make_unique<Core>(c, cfg.core, cfg.llc, *traces[c],
                                            *this, shared_llc_.get()));
    if (shared_llc_ == nullptr) {
      cores_.back()->llc().bind_stats(reg,
                                      "core" + std::to_string(c) + ".llc.");
    }
    const std::string prefix = "core" + std::to_string(c) + ".";
    CoreStatHandles h;
    h.instructions = reg.counter_handle(prefix + "instructions");
    h.cycles = reg.counter_handle(prefix + "cycles");
    h.stall_cycles = reg.counter_handle(prefix + "stall_cycles");
    h.mem_reads = reg.counter_handle(prefix + "mem_reads");
    h.mem_fills = reg.counter_handle(prefix + "mem_fills");
    h.mem_writebacks = reg.counter_handle(prefix + "mem_writebacks");
    for (std::size_t k = 0; k < telemetry::kCpiCategoryCount; ++k) {
      h.cpi[k] = reg.counter_handle(prefix + "cpi." +
                                    telemetry::kCpiCategoryKeys[k]);
    }
    core_stat_handles_.push_back(h);
  }

  // Fixed fill-latency components in CPU cycles, for make_fill.
  cas_cpu_ = static_cast<std::uint64_t>(memory_.config().timings.CL) *
             cfg_.cpu_ratio;
  bus_cpu_ = static_cast<std::uint64_t>(memory_.config().timings.tBL) *
             cfg_.cpu_ratio;

  // Relocation bases, hoisted out of the per-request path. Flat layout:
  // carve the physical space into equal per-core regions so footprints
  // never alias; every region spans all ranks/banks (the address map
  // cycles through them below the row bits).
  const auto& map = memory_.address_map();
  region_lines_ = map.organization().total_lines() / cores_.size();
  ROP_ASSERT(region_lines_ > 0);
  const std::uint32_t ranks = map.organization().ranks;
  reloc_base_line_.reserve(cores_.size());
  reloc_rank_.reserve(cores_.size());
  for (CoreId c = 0; c < cores_.size(); ++c) {
    reloc_base_line_.push_back(static_cast<std::uint64_t>(c) * region_lines_);
    reloc_rank_.push_back(c % ranks);
  }
}

System::~System() = default;

std::uint64_t System::llc_misses() const {
  if (shared_llc_ != nullptr) return shared_llc_->stats().misses;
  std::uint64_t misses = 0;
  for (const auto& core : cores_) misses += core->llc().stats().misses;
  return misses;
}

Address System::relocate(CoreId core, Address local) const {
  const std::uint64_t local_line = local >> kLineShift;
  if (cfg_.rank_partition) {
    return memory_.address_map().compose_in_rank(reloc_rank_[core],
                                                 local_line);
  }
  // The modulo wrap only matters when the footprint exceeds the region;
  // typical footprints fit, making the common case a single add.
  const std::uint64_t offset =
      local_line < region_lines_ ? local_line : local_line % region_lines_;
  return (reloc_base_line_[core] + offset) << kLineShift;
}

void System::note_enqueue(ChannelId ch) {
  // Only the accepting channel is re-armed, and the loop need not visit
  // before that channel's fresh delivery bound. The naive loop ticks every
  // boundary and keeps no clocks.
  if (cfg_.loop == LoopMode::kNaive) return;
  enqueue_bound_ =
      std::min(enqueue_bound_, clocks_.note_enqueue(ch, mem_now_));
}

std::optional<RequestId> System::issue_read(CoreId core, Address addr) {
  // MemorySystem::enqueue runs the controller's admission check first, so
  // a full queue rejects the request with no side effects.
  ChannelId ch = 0;
  const auto id = memory_.enqueue(relocate(core, addr), mem::ReqType::kRead,
                                  core, mem_now_, &ch);
  if (id) note_enqueue(ch);
  return id;
}

bool System::issue_write(CoreId core, Address addr) {
  ChannelId ch = 0;
  const bool ok = memory_
                      .enqueue(relocate(core, addr), mem::ReqType::kWrite,
                               core, mem_now_, &ch)
                      .has_value();
  if (ok) note_enqueue(ch);
  return ok;
}

std::uint64_t System::skip_target(std::uint64_t cpu_cycle,
                                  Cycle mem_next_event,
                                  std::uint64_t target_instructions,
                                  std::uint64_t max_cpu_cycles,
                                  const std::vector<bool>& crossed) const {
  std::uint64_t target = max_cpu_cycles;
  // Memory cap: no boundary before mem_next_event can deliver a completion,
  // so none needs a visit (the channels catch up lazily at the next one).
  if (mem_next_event <= max_cpu_cycles / cfg_.cpu_ratio) {
    target = std::min(target, mem_next_event * cfg_.cpu_ratio);
  }
  // Per-core caps: a sleeping core imposes none (its wake bounds the span
  // through the memory cap); an awake core can be bulk-advanced through
  // its remaining compute gap, further capped at its instruction-target
  // crossing cycle so the crossing snapshot lands exactly where the naive
  // loop records it.
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    const Core& core = *cores_[c];
    std::uint64_t next = core.next_event_cycle();
    if (!crossed[c] && !core.stalled_on_memory()) {
      const CoreStats& s = core.stats();
      const std::uint64_t need = target_instructions - s.instructions;
      const std::uint64_t width = cfg_.core.issue_width;
      next = std::min(next, s.cycles + (need + width - 1) / width);
    }
    target = std::min(target, next);
    if (target <= cpu_cycle) return target;  // next cycle must execute
  }
  return target;
}

FillInfo System::make_fill(const mem::Request& req) const {
  FillInfo f;
  const std::uint64_t r = cfg_.cpu_ratio;
  for (std::size_t k = 0; k < telemetry::kRefreshCauseCount; ++k) {
    f.refresh[k] = static_cast<std::uint64_t>(req.blocked[k]) * r;
  }
  f.sram = req.serviced_by == mem::ServicedBy::kSramBuffer;
  if (req.serviced_by == mem::ServicedBy::kDram) {
    if (req.act != kNeverCycle && req.issued != kNeverCycle &&
        req.issued > req.act) {
      f.act_wait = (req.issued - req.act) * r;
    }
    f.cas = cas_cpu_;
    f.bus = bus_cpu_;
  }
  // Write-forwarded reads keep all components zero: the whole span past
  // the refresh locks is queue wait on the write queue.
  return f;
}

CoreResult System::freeze(std::size_t c) const {
  const Core& core = *cores_[c];
  const CoreStats& s = core.stats();
  CoreResult r;
  r.instructions = s.instructions;
  r.cpu_cycles = s.cycles;
  r.ipc = s.ipc();
  r.mem_reads = s.mem_reads + s.mem_fills;
  r.mem_writebacks = s.mem_writebacks;
  r.cpi = core.settled_cpi();
  return r;
}

void System::record_crossing(std::size_t c) {
  loop_.crossed[c] = true;
  --loop_.remaining;
  loop_.partial[c] = freeze(c);
}

void System::begin_run(std::uint64_t target_instructions,
                       std::uint64_t max_cpu_cycles) {
  ROP_ASSERT(!loop_.active && "one run per System");
  loop_.active = true;
  loop_.target_instructions = target_instructions;
  loop_.max_cpu_cycles = max_cpu_cycles;
  loop_.cpu_cycle = 0;
  loop_.next_window_cpu = 0;
  loop_.mem_next_event = 0;
  loop_.crossed.assign(cores_.size(), false);
  loop_.remaining = cores_.size();
  loop_.partial.assign(cores_.size(), CoreResult{});
  mem_now_ = 0;
  enqueue_bound_ = kNeverCycle;
  // The trace sink records events in tick order, and the per-channel
  // clocks tick one channel at a time.
  ROP_ASSERT((memory_.num_channels() == 1 ||
              memory_.controller(0).trace() == nullptr) &&
             "an event trace needs one channel");
}

bool System::advance_until(std::uint64_t stop_cpu) {
  ROP_ASSERT(loop_.active);
  const bool naive = cfg_.loop == LoopMode::kNaive;
  // Event-loop sleep/wake: a core blocked on a critical load is not
  // executed (nor billed) per cycle; its cycles/stall_cycles lag until the
  // wake back-fill in Core::on_read_complete or a bulk run_until catches
  // it up. The naive loop bills stalled cores every cycle, so the
  // back-fill is zero there.
  const bool lazy_sleep = !naive;
  const std::uint64_t stop = std::min(stop_cpu, loop_.max_cpu_cycles);

  // Hot locals, copied in at the segment edge and back out at exit.
  std::uint64_t cpu_cycle = loop_.cpu_cycle;
  std::uint64_t next_window_cpu = loop_.next_window_cpu;
  Cycle mem_next_event = loop_.mem_next_event;

  while (cpu_cycle < stop && loop_.remaining > 0) {
    // -- Memory-window entry: visit the boundary once per window. A
    // mid-window entry (a bulk advance or a segment stop landed between
    // boundaries) ticks nothing in the event loop: the skip caps guarantee
    // no completion is due in the current window, so only mem_now_
    // bookkeeping runs.
    if (cpu_cycle >= next_window_cpu) {
      mem_now_ = cpu_cycle / cfg_.cpu_ratio;
      next_window_cpu = (mem_now_ + 1) * cfg_.cpu_ratio;
      const auto deliver = [&](const mem::Request& req) {
        cores_[req.core]->on_read_complete(req.id, cpu_cycle, make_fill(req));
      };
      if (naive) {
        memory_.tick(mem_now_);
        memory_.for_each_completed(deliver);
      } else {
        // Advance every channel through its own due ticks (emitting epoch
        // samples on the way), then drain. A conservative-early bound just
        // makes this a cheap no-op visit.
        clocks_.advance_to(mem_now_);
        clocks_.for_each_completed(deliver);
        mem_next_event = clocks_.next_required_boundary(mem_now_);
      }
    }

    // -- Execute this CPU cycle.
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      if (lazy_sleep && cores_[c]->stalled_on_memory()) continue;
      cores_[c]->cycle();
      if (!loop_.crossed[c] &&
          cores_[c]->stats().instructions >= loop_.target_instructions) {
        record_crossing(c);
      }
    }
    ++cpu_cycle;
    // Fold the delivery bounds of this cycle's enqueues into the next visit.
    if (enqueue_bound_ < mem_next_event) mem_next_event = enqueue_bound_;
    enqueue_bound_ = kNeverCycle;

    // -- Bulk advance: jump the whole system across a span every party has
    // proven pure: the event loop folds per-core next events into the jump
    // target.
    // Clamping the jump at the segment stop is exact: run_until composes
    // over pure spans, and the re-entry window visit is a provable no-op.
    if (loop_.remaining == 0) continue;
    if (naive) continue;
    const std::uint64_t target = std::min(
        stop, skip_target(cpu_cycle, mem_next_event,
                          loop_.target_instructions, loop_.max_cpu_cycles,
                          loop_.crossed));
    if (target <= cpu_cycle) continue;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      cores_[c]->run_until(target);
      if (!loop_.crossed[c] &&
          cores_[c]->stats().instructions >= loop_.target_instructions) {
        record_crossing(c);
      }
    }
    cpu_cycle = target;
  }

  // Run every channel tick due before the exit cycle, as the naive loop
  // has: state read between segments (a sampled window's energy and
  // counters, a snapshot) must not lag behind the clock. The next visit
  // would run these ticks at the same cycles, so the run is unchanged.
  if (!naive && cpu_cycle > 0) {
    clocks_.catch_up((cpu_cycle - 1) / cfg_.cpu_ratio);
  }
  loop_.cpu_cycle = cpu_cycle;
  loop_.next_window_cpu = next_window_cpu;
  loop_.mem_next_event = mem_next_event;
  return loop_.remaining == 0 || cpu_cycle >= loop_.max_cpu_cycles;
}

RunResult System::finish_run() {
  ROP_ASSERT(loop_.active);
  RunResult result;
  result.cores = loop_.partial;
  result.hit_cycle_limit = loop_.remaining > 0;
  const std::uint64_t cpu_cycle = loop_.cpu_cycle;

  // Settle lazily-billed sleepers at the final cycle (a no-op for every
  // core that executed or was bulk-advanced to cpu_cycle).
  for (auto& core : cores_) core->run_until(cpu_cycle);
  // Settle the sampler at the final memory cycle *before* the core-counter
  // mirror below: bulk advances may have jumped past epoch boundaries, and
  // emitting them lazily after the mirror would fold end-of-run core
  // totals into the last full epoch — breaking bit-identity with the naive
  // loop, which sampled those boundaries pre-mirror. The trailing partial
  // epoch (emitted by close() in finalize) captures the mirror in both
  // modes.
  if (cfg_.loop == LoopMode::kNaive) {
    if (telemetry::EpochSampler* const s = memory_.sampler()) {
      s->advance_to(cpu_cycle / cfg_.cpu_ratio);
    }
  } else {
    // The channels already ran every tick before cpu_cycle (advance_until
    // and functional_window leave them caught up), like the naive loop.
    clocks_.sample_to(cpu_cycle / cfg_.cpu_ratio);
  }

  // Freeze any core that never crossed (cycle-limit safety net).
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    if (!loop_.crossed[c]) result.cores[c] = freeze(c);
  }

  // Mirror the final per-core counters into the registry (handles resolved
  // at construction). A System runs once. The CPI mirror folds any
  // unresolved critical span into `other`, so the exported stack sums to
  // the exported cycles.
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    const CoreStats& s = cores_[c]->stats();
    const CoreStatHandles& h = core_stat_handles_[c];
    h.instructions->inc(s.instructions);
    h.cycles->inc(s.cycles);
    h.stall_cycles->inc(s.stall_cycles);
    h.mem_reads->inc(s.mem_reads);
    h.mem_fills->inc(s.mem_fills);
    h.mem_writebacks->inc(s.mem_writebacks);
    const telemetry::CpiStack cpi = cores_[c]->settled_cpi();
    for (std::size_t k = 0; k < telemetry::kCpiCategoryCount; ++k) {
      h.cpi[k]->inc(cpi.cycles[k]);
    }
  }

  result.cpu_cycles = cpu_cycle;
  result.mem_cycles = cpu_cycle / cfg_.cpu_ratio;
  memory_.finalize(result.mem_cycles);
  loop_.active = false;
  return result;
}

RunResult System::run(std::uint64_t target_instructions,
                      std::uint64_t max_cpu_cycles) {
  begin_run(target_instructions, max_cpu_cycles);
  advance_until(max_cpu_cycles);
  return finish_run();
}

std::uint64_t System::functional_window(std::uint64_t instructions_per_core,
                                        Cycle critical_penalty) {
  return functional_window([&](Core& core) {
    core.functional_advance(instructions_per_core, critical_penalty);
  });
}

std::uint64_t System::functional_window(const FunctionalStep& step) {
  ROP_ASSERT(loop_.active);
  ROP_ASSERT(cfg_.loop == LoopMode::kEventDriven &&
             "sampled execution runs on the event-driven loop");
  const std::uint64_t start_cpu = loop_.cpu_cycle;

  // 1. Every caller (the sampling planner's backbone) enters on a
  // memory-window boundary with no demand reads in flight, so there is
  // nothing to drain. The entry boundary is visited like any other: an
  // event due there (a refresh step) runs on time.
  ROP_ASSERT(start_cpu % cfg_.cpu_ratio == 0 &&
             "functional windows start on a memory-window boundary");
  for (const auto& core : cores_) {
    ROP_ASSERT(core->outstanding() == 0 &&
               "functional windows start with no reads in flight");
  }
  const Cycle m = start_cpu / cfg_.cpu_ratio;
  clocks_.advance_to(m);

  // 2. Functional warming: every core retires the window's instructions
  // with no memory requests (see Core::functional_advance).
  std::uint64_t max_core_cycles = 0;
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    step(*cores_[c]);
    max_core_cycles = std::max(max_core_cycles, cores_[c]->stats().cycles);
    if (!loop_.crossed[c] &&
        cores_[c]->stats().instructions >= loop_.target_instructions) {
      record_crossing(c);
    }
  }

  // 3. Land the whole system on one memory-window boundary at or past the
  // slowest core's estimate, then advance the memory through the span:
  // refreshes and write drains happen at their natural times.
  const std::uint64_t end_cpu_raw = std::max(start_cpu + 1, max_core_cycles);
  const Cycle end_mem =
      (end_cpu_raw + cfg_.cpu_ratio - 1) / cfg_.cpu_ratio;
  const std::uint64_t end_cpu =
      end_mem * static_cast<std::uint64_t>(cfg_.cpu_ratio);
  if (end_mem > m) clocks_.advance_to(end_mem - 1);
  // No demand read was in flight and functional cores issue nothing, so
  // completions cannot appear here.
  clocks_.for_each_completed([](const mem::Request&) {
    ROP_ASSERT(false && "no demand reads in flight during warming");
  });
  clocks_.sample_to(end_mem);

  // 4. Re-align every clock to the window boundary so detailed execution
  // resumes from a consistent state. The alignment span is billed as
  // stall; the next window visit runs whatever the channels have due.
  for (auto& core : cores_) core->align_cycles(end_cpu);
  loop_.cpu_cycle = end_cpu;
  loop_.next_window_cpu = end_cpu;  // forces a window visit on resume
  loop_.mem_next_event = 0;
  mem_now_ = end_mem;
  return end_cpu - start_cpu;
}

}  // namespace rop::cpu
