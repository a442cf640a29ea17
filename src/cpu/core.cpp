#include "cpu/core.h"

#include <algorithm>

namespace rop::cpu {

Core::Core(CoreId id, const CoreConfig& cfg, const cache::LlcConfig& llc_cfg,
           workload::TraceSource& trace, MemoryPort& port,
           cache::Llc* shared_llc)
    : id_(id),
      cfg_(cfg),
      private_llc_(shared_llc == nullptr
                       ? std::make_unique<cache::Llc>(llc_cfg)
                       : nullptr),
      llc_(shared_llc != nullptr ? shared_llc : private_llc_.get()),
      trace_(trace),
      port_(port),
      critical_(cfg.critical_load_fraction),
      rng_(cfg.seed ^ (0x9e3779b97f4a7c15ULL * (id + 1))) {
  ROP_ASSERT(cfg.issue_width > 0);
  ROP_ASSERT(cfg.max_outstanding > 0);
}

bool Core::do_mem_op() {
  // A dirty writeback from a previous fill must drain first (it holds the
  // single writeback buffer slot).
  if (pending_writeback_) {
    if (!port_.issue_write(id_, *pending_writeback_)) {
      block_reason_ = BlockReason::kPort;
      return false;
    }
    ++stats_.mem_writebacks;
    pending_writeback_.reset();
  }

  cache::Llc& llc = *llc_;
  if (!mem_op_pending_) {
    const cache::LlcAccessResult res = llc.access(current_.addr,
                                                  current_.is_write);
    if (res.writeback) pending_writeback_ = *res.writeback;
    if (res.hit) {
      return true;  // LLC hit: retires with no memory traffic
    }
    mem_op_pending_ = true;  // a fill read must reach memory
  }

  // The fill occupies an outstanding-miss slot regardless of load/store.
  if (outstanding_ >= cfg_.max_outstanding) {
    block_reason_ = BlockReason::kMlp;
    return false;
  }
  const auto id = port_.issue_read(id_, current_.addr);
  if (!id) {
    block_reason_ = BlockReason::kPort;
    return false;
  }
  ++outstanding_;
  if (current_.is_write) {
    ++stats_.mem_fills;
  } else {
    ++stats_.mem_reads;
    // A critical load's value is needed right away: retirement blocks
    // until the fill returns.
    if (critical_.draw(rng_)) {
      critical_pending_ = *id;
      critical_since_ = stats_.cycles;
    }
  }
  mem_op_pending_ = false;
  return true;
}

void Core::cycle() {
  ++stats_.cycles;
  if (critical_pending_) {
    ++stats_.stall_cycles;
    return;  // blocked on an outstanding critical load
  }
  std::uint32_t budget = cfg_.issue_width;
  const std::uint64_t retired_before = stats_.instructions;

  while (budget > 0) {
    if (!have_record_) {
      current_ = trace_.next();
      have_record_ = true;
      remaining_gap_ = current_.gap;
    }
    if (remaining_gap_ > 0) {
      const std::uint32_t take = std::min(budget, remaining_gap_);
      remaining_gap_ -= take;
      budget -= take;
      stats_.instructions += take;
      continue;
    }
    // Compute gap consumed: the record's memory operation is next.
    if (!do_mem_op()) break;  // stalled on MLP budget or full memory queue
    stats_.instructions += 1;  // the memory instruction itself
    budget -= 1;
    have_record_ = false;
    if (critical_pending_) break;  // the load's value gates retirement
  }

  if (stats_.instructions == retired_before) {
    ++stats_.stall_cycles;
    // Zero retirement always means do_mem_op failed on the first loop
    // iteration, so block_reason_ was set this cycle. Blocked cores run
    // cycle() every cycle in every loop mode (next_event_cycle == cycles
    // while mem_op_pending_), so this per-cycle billing is loop-invariant.
    if (block_reason_ == BlockReason::kMlp) {
      ++stats_.stall_mlp_cycles;
    } else {
      ++stats_.stall_port_cycles;
    }
  } else {
    ++stats_.retire_cycles;
  }
  block_reason_ = BlockReason::kNone;
}

std::uint64_t Core::functional_advance(std::uint64_t instructions,
                                       Cycle critical_penalty) {
  ROP_ASSERT(outstanding_ == 0);
  ROP_ASSERT(!critical_pending_);
  // Any writeback still waiting for the bus is dropped: there is no memory
  // in functional mode, and the LLC line it came from is already clean.
  pending_writeback_.reset();

  std::uint64_t retired = 0;
  std::uint64_t slots = 0;         // compute-gap issue slots consumed
  std::uint64_t extra_cycles = 0;  // memory ops + critical-miss penalties
  while (retired < instructions) {
    if (!have_record_) {
      current_ = trace_.next();
      have_record_ = true;
      remaining_gap_ = current_.gap;
    }
    if (remaining_gap_ > 0) {
      const std::uint64_t want = instructions - retired;
      const std::uint32_t take = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(remaining_gap_, want));
      remaining_gap_ -= take;
      retired += take;
      slots += take;
      continue;
    }
    // The record's memory operation. If a detailed window left the op
    // half-issued (mem_op_pending_), the LLC access already happened and
    // was a miss; otherwise access (and warm) the LLC now.
    bool miss;
    if (mem_op_pending_) {
      miss = true;
      mem_op_pending_ = false;
    } else {
      const cache::LlcAccessResult res =
          llc_->access(current_.addr, current_.is_write);
      miss = !res.hit;  // res.writeback dropped: no memory to receive it
    }
    if (miss && !current_.is_write &&
        critical_.draw(rng_)) {
      extra_cycles += critical_penalty;
    }
    extra_cycles += 1;
    retired += 1;
    have_record_ = false;
  }

  const std::uint64_t cycles = slots / cfg_.issue_width + extra_cycles;
  stats_.instructions += retired;
  stats_.cycles += cycles;
  stats_.other_cycles += cycles;  // estimated, not micro-architecturally billed
  return cycles;
}

}  // namespace rop::cpu
