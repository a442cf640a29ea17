#include "cpu/system.h"

#include <algorithm>
#include <string>

#include "mem/shard_pool.h"
#include "telemetry/epoch_sampler.h"

namespace rop::cpu {

System::System(const SystemConfig& cfg, mem::MemorySystem& memory,
               std::vector<workload::TraceSource*> traces)
    : cfg_(cfg), memory_(memory) {
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
    h.cpi_retire = reg.counter_handle(prefix + "cpi.retire");
    h.cpi_stall_mlp = reg.counter_handle(prefix + "cpi.stall_mlp");
    h.cpi_stall_port = reg.counter_handle(prefix + "cpi.stall_port");
    h.cpi_mem_queue = reg.counter_handle(prefix + "cpi.mem_queue");
    h.cpi_mem_bank = reg.counter_handle(prefix + "cpi.mem_bank");
    h.cpi_mem_cas = reg.counter_handle(prefix + "cpi.mem_cas");
    h.cpi_mem_bus = reg.counter_handle(prefix + "cpi.mem_bus");
    h.cpi_refresh_rank = reg.counter_handle(prefix + "cpi.refresh_rank");
    h.cpi_refresh_bank = reg.counter_handle(prefix + "cpi.refresh_bank");
    h.cpi_refresh_subarray =
        reg.counter_handle(prefix + "cpi.refresh_subarray");
    h.cpi_refresh_pause = reg.counter_handle(prefix + "cpi.refresh_pause");
    h.cpi_rop_sram = reg.counter_handle(prefix + "cpi.rop_sram");
    h.cpi_other = reg.counter_handle(prefix + "cpi.other");
    core_stat_handles_.push_back(h);
  }

  // Fixed fill-latency components in CPU cycles, for make_fill.
  cas_cpu_ = static_cast<std::uint64_t>(memory_.config().timings.CL) *
             cfg_.cpu_ratio;
  bus_cpu_ = static_cast<std::uint64_t>(memory_.config().timings.tBL) *
             cfg_.cpu_ratio;

  // Relocation bases, hoisted out of the per-request path. Flat layout:
  // carve the physical space into equal per-core regions so footprints
  // never alias; every region spans all ranks/banks (the default
  // interleaving cycles through them in the low address bits).
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

bool System::all_cores_stalled() const {
  for (const auto& core : cores_) {
    if (!core->stalled_on_memory()) return false;
  }
  return true;
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

std::optional<RequestId> System::issue_read(CoreId core, Address addr) {
  const Address phys = relocate(core, addr);
  if (!memory_.can_accept(phys, mem::ReqType::kRead)) return std::nullopt;
  ChannelId ch = 0;
  const auto id =
      memory_.enqueue(phys, mem::ReqType::kRead, core, mem_now_, &ch);
  // The cached next-event answer is stale the moment a request lands; the
  // next boundary tick must execute to observe it. Sharded: only the
  // channel that accepted the request needs re-arming.
  if (id) {
    mem_dirty_ = true;
    if (pool_ != nullptr) pool_->note_enqueue(ch, mem_now_);
  }
  return id;
}

bool System::issue_write(CoreId core, Address addr) {
  const Address phys = relocate(core, addr);
  if (!memory_.can_accept(phys, mem::ReqType::kWrite)) return false;
  ChannelId ch = 0;
  const bool ok =
      memory_.enqueue(phys, mem::ReqType::kWrite, core, mem_now_, &ch)
          .has_value();
  if (ok) {
    mem_dirty_ = true;
    if (pool_ != nullptr) pool_->note_enqueue(ch, mem_now_);
  }
  return ok;
}

std::uint64_t System::skip_target(std::uint64_t cpu_cycle,
                                  std::uint64_t next_window_cpu,
                                  Cycle mem_next_event,
                                  std::uint64_t target_instructions,
                                  std::uint64_t max_cpu_cycles,
                                  const std::vector<bool>& crossed) const {
  std::uint64_t target = max_cpu_cycles;
  // Memory cap. A dirty queue forces the next boundary tick (the first
  // tick that can observe the new request); otherwise every boundary
  // before mem_next_event is a provable no-op tick and needs no visit.
  if (mem_dirty_) {
    target = std::min(target, next_window_cpu);
  } else if (mem_next_event <= max_cpu_cycles / cfg_.cpu_ratio) {
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
  f.refresh_rank = static_cast<std::uint64_t>(req.blocked_rank) * r;
  f.refresh_bank = static_cast<std::uint64_t>(req.blocked_bank) * r;
  f.refresh_sub = static_cast<std::uint64_t>(req.blocked_sub) * r;
  f.refresh_pause = static_cast<std::uint64_t>(req.blocked_pause) * r;
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

void System::freeze_cpi_stack(std::size_t c, CoreResult& r) const {
  const CoreStats& s = cores_[c]->stats();
  r.retire_cycles = s.retire_cycles;
  r.stall_mlp_cycles = s.stall_mlp_cycles;
  r.stall_port_cycles = s.stall_port_cycles;
  r.stall_mem_queue_cycles = s.stall_mem_queue_cycles;
  r.stall_mem_bank_cycles = s.stall_mem_bank_cycles;
  r.stall_mem_cas_cycles = s.stall_mem_cas_cycles;
  r.stall_mem_bus_cycles = s.stall_mem_bus_cycles;
  r.stall_refresh_rank_cycles = s.stall_refresh_rank_cycles;
  r.stall_refresh_bank_cycles = s.stall_refresh_bank_cycles;
  r.stall_refresh_subarray_cycles = s.stall_refresh_subarray_cycles;
  r.stall_refresh_pause_cycles = s.stall_refresh_pause_cycles;
  r.stall_rop_sram_cycles = s.stall_rop_sram_cycles;
  r.other_cycles = s.other_cycles + cores_[c]->unresolved_stall_cycles();
}

void System::record_crossing(std::size_t c) {
  loop_.crossed[c] = true;
  --loop_.remaining;
  CoreResult& r = loop_.partial[c];
  const CoreStats& s = cores_[c]->stats();
  r.instructions = s.instructions;
  r.cpu_cycles = s.cycles;
  r.ipc = s.ipc();
  r.mem_reads = s.mem_reads + s.mem_fills;
  r.mem_writebacks = s.mem_writebacks;
  freeze_cpi_stack(c, r);
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
  mem_dirty_ = false;
  if (cfg_.shard_channels > 0) {
    // See mem/shard_pool.h for why per-channel advancement is
    // bit-identical to the serial loop.
    ROP_ASSERT(cfg_.loop == LoopMode::kEventDriven &&
               "channel sharding builds on the event-driven loop");
    ROP_ASSERT(memory_.per_channel_stats() &&
               "sharded channels must not share a registry");
    ROP_ASSERT(memory_.controller(0).trace() == nullptr &&
               "the trace sink interleaves channels and is order-sensitive");
    pool_ = std::make_unique<mem::ShardPool>(memory_, cfg_.shard_channels);
  } else {
    ROP_ASSERT(!memory_.per_channel_stats() &&
               "per-channel registries are only folded by the sharded loop");
  }
}

bool System::advance_until(std::uint64_t stop_cpu) {
  ROP_ASSERT(loop_.active);
  const LoopMode mode = cfg_.loop;
  const bool sharded = pool_ != nullptr;
  // Event-loop sleep/wake: a core blocked on a critical load is not
  // executed (nor billed) per cycle; its cycles/stall_cycles lag until the
  // wake back-fill in Core::on_read_complete or a bulk run_until catches
  // it up. The per-cycle modes bill stalled cores every cycle, so the
  // back-fill is zero there.
  const bool lazy_sleep = sharded || mode == LoopMode::kEventDriven;
  telemetry::EpochSampler* const sampler = memory_.sampler();
  const std::uint64_t stop = std::min(stop_cpu, loop_.max_cpu_cycles);

  // Hot locals, copied in at the segment edge and back out at exit.
  std::uint64_t cpu_cycle = loop_.cpu_cycle;
  std::uint64_t next_window_cpu = loop_.next_window_cpu;
  Cycle mem_next_event = loop_.mem_next_event;

  while (cpu_cycle < stop && loop_.remaining > 0) {
    // -- Memory-window entry: visit the boundary once per window. A
    // mid-window entry (a bulk advance or a segment stop landed between
    // boundaries) never ticks in the event modes: the skip caps guarantee
    // the current window's boundary tick was a provable no-op, so only
    // mem_now_/sampler bookkeeping runs.
    if (cpu_cycle >= next_window_cpu) {
      mem_now_ = cpu_cycle / cfg_.cpu_ratio;
      next_window_cpu = (mem_now_ + 1) * cfg_.cpu_ratio;
      if (sharded) {
        // Advance every channel through its own due ticks (folding epoch
        // boundaries on the way), then drain. A conservative-early bound
        // just makes this a cheap no-op visit.
        pool_->advance_to(mem_now_);
        pool_->for_each_completed([&](const mem::Request& req) {
          cores_[req.core]->on_read_complete(req.id, cpu_cycle,
                                             make_fill(req));
        });
        mem_dirty_ = false;
        mem_next_event = pool_->next_required_boundary(mem_now_);
      } else {
        if (sampler != nullptr) sampler->advance_to(mem_now_);
        if (mode == LoopMode::kNaive || mem_dirty_ ||
            mem_now_ >= mem_next_event) {
          memory_.tick(mem_now_);
          memory_.for_each_completed([&](const mem::Request& req) {
            cores_[req.core]->on_read_complete(req.id, cpu_cycle,
                                               make_fill(req));
          });
          mem_dirty_ = false;
          if (mode != LoopMode::kNaive) {
            mem_next_event = memory_.next_event_cycle(mem_now_);
          }
        }
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

    // -- Bulk advance: jump the whole system across a span every party has
    // proven pure. kFrozenStall keeps the PR-3 restriction (skip only the
    // paper's frozen cycles, when every core is stalled); kEventDriven and
    // the sharded loop fold per-core next events into the same mechanism.
    // Clamping the jump at the segment stop is exact: run_until composes
    // over pure spans, and the re-entry window visit is a provable no-op.
    if (loop_.remaining == 0) continue;
    if (!sharded) {
      if (mode == LoopMode::kNaive) continue;
      if (mode == LoopMode::kFrozenStall && !all_cores_stalled()) continue;
    }
    const std::uint64_t target = std::min(
        stop, skip_target(cpu_cycle, next_window_cpu, mem_next_event,
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
  if (pool_ != nullptr) {
    // Catch up with everything the serial loop would have ticked: every
    // due event E with E * cpu_ratio < cpu_cycle was executed there (the
    // skip cap lands the loop on each such window before exiting), while
    // events at or past the exit cycle never run. Completions produced
    // here stay undrained, exactly like the serial exit.
    if (cpu_cycle > 0) pool_->advance_to((cpu_cycle - 1) / cfg_.cpu_ratio);
    pool_->sample_to(cpu_cycle / cfg_.cpu_ratio);
  } else if (telemetry::EpochSampler* const s = memory_.sampler()) {
    s->advance_to(cpu_cycle / cfg_.cpu_ratio);
  }

  // Freeze any core that never crossed (cycle-limit safety net).
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    if (loop_.crossed[c]) continue;
    CoreResult& r = result.cores[c];
    const CoreStats& s = cores_[c]->stats();
    r.instructions = s.instructions;
    r.cpu_cycles = s.cycles;
    r.ipc = s.ipc();
    r.mem_reads = s.mem_reads + s.mem_fills;
    r.mem_writebacks = s.mem_writebacks;
    freeze_cpi_stack(c, r);
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
    h.cpi_retire->inc(s.retire_cycles);
    h.cpi_stall_mlp->inc(s.stall_mlp_cycles);
    h.cpi_stall_port->inc(s.stall_port_cycles);
    h.cpi_mem_queue->inc(s.stall_mem_queue_cycles);
    h.cpi_mem_bank->inc(s.stall_mem_bank_cycles);
    h.cpi_mem_cas->inc(s.stall_mem_cas_cycles);
    h.cpi_mem_bus->inc(s.stall_mem_bus_cycles);
    h.cpi_refresh_rank->inc(s.stall_refresh_rank_cycles);
    h.cpi_refresh_bank->inc(s.stall_refresh_bank_cycles);
    h.cpi_refresh_subarray->inc(s.stall_refresh_subarray_cycles);
    h.cpi_refresh_pause->inc(s.stall_refresh_pause_cycles);
    h.cpi_rop_sram->inc(s.stall_rop_sram_cycles);
    h.cpi_other->inc(s.other_cycles + cores_[c]->unresolved_stall_cycles());
  }

  result.cpu_cycles = cpu_cycle;
  result.mem_cycles = cpu_cycle / cfg_.cpu_ratio;
  if (pool_ != nullptr) {
    pool_->finalize_run(result.mem_cycles);
    pool_.reset();
  } else {
    memory_.finalize(result.mem_cycles);
  }
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
  ROP_ASSERT(loop_.active);
  ROP_ASSERT(pool_ == nullptr && "sampled execution is a serial-loop mode");
  telemetry::EpochSampler* const sampler = memory_.sampler();
  const std::uint64_t start_cpu = loop_.cpu_cycle;

  // 1. Drain: tick the memory event-driven (no new arrivals) until every
  // core's outstanding misses have completed. Completions deliver at the
  // CPU cycle of the producing memory window; critical sleepers back-fill
  // their slept span exactly as in detailed execution.
  auto outstanding_total = [&] {
    std::uint64_t n = 0;
    for (const auto& core : cores_) n += core->outstanding();
    return n;
  };
  Cycle m = start_cpu / cfg_.cpu_ratio;
  std::uint64_t drained_cpu = start_cpu;
  while (outstanding_total() > 0) {
    memory_.tick(m);
    const std::uint64_t deliver_cpu =
        std::max(start_cpu, m * static_cast<std::uint64_t>(cfg_.cpu_ratio));
    memory_.for_each_completed([&](const mem::Request& req) {
      cores_[req.core]->on_read_complete(req.id, deliver_cpu,
                                         make_fill(req));
    });
    drained_cpu = deliver_cpu;
    if (outstanding_total() == 0) break;
    const Cycle next = memory_.next_event_cycle(m);
    ROP_ASSERT(next != kNeverCycle && "outstanding reads must complete");
    m = std::max(m + 1, next);
  }

  // 2. Functional warming: every core retires the window's instructions
  // with no memory requests (see Core::functional_advance).
  std::uint64_t max_core_cycles = 0;
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    cores_[c]->functional_advance(instructions_per_core, critical_penalty);
    max_core_cycles = std::max(max_core_cycles, cores_[c]->stats().cycles);
    if (!loop_.crossed[c] &&
        cores_[c]->stats().instructions >= loop_.target_instructions) {
      record_crossing(c);
    }
  }

  // 3. Land the whole system on one memory-window boundary at or past the
  // slowest core's estimate, then advance the memory event-driven through
  // the span: refreshes and write drains happen at their natural times.
  const std::uint64_t end_cpu_raw = std::max(
      {start_cpu + 1, drained_cpu, max_core_cycles});
  const Cycle end_mem =
      (end_cpu_raw + cfg_.cpu_ratio - 1) / cfg_.cpu_ratio;
  const std::uint64_t end_cpu =
      end_mem * static_cast<std::uint64_t>(cfg_.cpu_ratio);
  Cycle due = memory_.next_event_cycle(m);
  while (due < end_mem) {
    if (sampler != nullptr) sampler->advance_to(due);
    memory_.tick(due);
    // Demand reads were drained above and functional cores issue nothing,
    // so completions cannot appear here.
    memory_.for_each_completed([](const mem::Request&) {
      ROP_ASSERT(false && "no demand reads in flight during warming");
    });
    due = memory_.next_event_cycle(due);
  }
  if (sampler != nullptr) sampler->advance_to(end_mem);

  // 4. Re-align every clock to the window boundary so detailed execution
  // resumes from a consistent state. The alignment span is billed as
  // stall; the next window visit must re-tick (the no-op-skip proof does
  // not cover a functional jump), so mark the memory dirty.
  for (auto& core : cores_) core->align_cycles(end_cpu);
  loop_.cpu_cycle = end_cpu;
  loop_.next_window_cpu = end_cpu;  // forces a window visit on resume
  loop_.mem_next_event = 0;
  mem_now_ = end_mem;
  mem_dirty_ = true;
  return end_cpu - start_cpu;
}

}  // namespace rop::cpu
