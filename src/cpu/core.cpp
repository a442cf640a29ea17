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
    const cache::LlcAccessResult res = llc.access(front_.current.addr,
                                                  front_.current.is_write);
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
  const auto id = port_.issue_read(id_, front_.current.addr);
  if (!id) {
    block_reason_ = BlockReason::kPort;
    return false;
  }
  ++outstanding_;
  if (front_.current.is_write) {
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
    if (!front_.have_record) {
      front_.current = trace_.next();
      front_.have_record = true;
      front_.remaining_gap = front_.current.gap;
    }
    if (front_.remaining_gap > 0) {
      const std::uint32_t take = std::min(budget, front_.remaining_gap);
      front_.remaining_gap -= take;
      budget -= take;
      stats_.instructions += take;
      continue;
    }
    // Compute gap consumed: the record's memory operation is next.
    if (!do_mem_op()) break;  // stalled on MLP budget or full memory queue
    stats_.instructions += 1;  // the memory instruction itself
    budget -= 1;
    front_.have_record = false;
    if (critical_pending_) break;  // the load's value gates retirement
  }

  if (stats_.instructions == retired_before) {
    ++stats_.stall_cycles;
    // Zero retirement always means do_mem_op failed on the first loop
    // iteration, so block_reason_ was set this cycle. Blocked cores run
    // cycle() every cycle in every loop mode (next_event_cycle == cycles
    // while mem_op_pending_), so this per-cycle billing is loop-invariant.
    if (block_reason_ == BlockReason::kMlp) {
      ++stats_.cpi[CpiCategory::kStallMlp];
    } else {
      ++stats_.cpi[CpiCategory::kStallPort];
    }
  } else {
    ++stats_.cpi[CpiCategory::kRetire];
  }
  block_reason_ = BlockReason::kNone;
}

std::uint64_t Core::functional_advance(std::uint64_t instructions,
                                       Cycle critical_penalty) {
  std::uint64_t op_cycles = 0;
  const std::uint64_t slots = walk_records(
      trace_, front_, instructions, [&](const workload::TraceRecord& rec) {
        // If a detailed window left the op half-issued (mem_op_pending_),
        // the LLC access already happened and was a miss; otherwise access
        // (and warm) the LLC now. A writeback is dropped: no memory to
        // receive it.
        bool miss;
        if (mem_op_pending_) {
          miss = true;
          mem_op_pending_ = false;
        } else {
          miss = !llc_->access(rec.addr, rec.is_write).hit;
        }
        op_cycles += functional_op_cycles(miss, rec.is_write,
                                          critical_penalty);
      });
  return charge_functional(instructions, slots, op_cycles);
}

std::uint64_t Core::charge_functional(std::uint64_t instructions,
                                      std::uint64_t slots,
                                      std::uint64_t op_cycles) {
  ROP_ASSERT(outstanding_ == 0);
  ROP_ASSERT(!critical_pending_);
  pending_writeback_.reset();
  const std::uint64_t cycles = slots / cfg_.issue_width + op_cycles;
  stats_.instructions += instructions;
  stats_.cycles += cycles;
  // Estimated, not micro-architecturally billed.
  stats_.cpi[CpiCategory::kOther] += cycles;
  return cycles;
}

}  // namespace rop::cpu
