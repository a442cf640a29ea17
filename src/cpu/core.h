// Trace-driven core model.
//
// The core retires up to `issue_width` instructions per CPU cycle from the
// compute gaps in its trace. Memory reads that miss the LLC become memory
// requests; the core keeps executing past outstanding misses up to
// `max_outstanding` (a bounded-MLP approximation of an out-of-order window)
// and stalls when the budget is exhausted. Stores retire immediately
// (write-allocate fills and dirty writebacks generate memory traffic but do
// not stall retirement beyond the same MLP budget).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "cache/llc.h"
#include "common/rng.h"
#include "common/types.h"
#include "cpu/record_walk.h"
#include "telemetry/attribution.h"
#include "workload/trace.h"

namespace rop::cpu {

using telemetry::CpiCategory;

struct CoreConfig {
  std::uint32_t issue_width = 4;
  std::uint32_t max_outstanding = 8;  // in-flight LLC miss budget (MLP)
  /// Fraction of LLC-miss loads whose value feeds the instruction window
  /// immediately: the core stalls until their data returns. This models
  /// dependency chains an out-of-order window cannot hide and is what
  /// makes the core latency-sensitive (without it, bounded MLP alone
  /// hides nearly all memory latency).
  double critical_load_fraction = 0.35;
  std::uint64_t seed = 0xC0DEULL;  // criticality draw
};

struct CoreStats {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t stall_cycles = 0;   // cycles with zero retirement
  std::uint64_t mem_reads = 0;      // LLC read misses sent to memory
  std::uint64_t mem_fills = 0;      // write-allocate fills sent to memory
  std::uint64_t mem_writebacks = 0;

  // CPI-stack ledger: a disjoint decomposition of `cycles`. Every
  // executed cycle bills exactly one category; the span spent asleep on a
  // critical load is billed at wake, decomposed from the fill's lifecycle
  // stamps (Core::on_read_complete). Invariant — enforced by
  // SimChecker::audit_cpi and the attribution tests:
  //   cpi.sum() + unresolved critical span == cycles, always.
  telemetry::CpiStack cpi;

  [[nodiscard]] double ipc() const {
    return cycles ? static_cast<double>(instructions) /
                        static_cast<double>(cycles)
                  : 0.0;
  }

  /// Snapshot serialization (see common/snapshot_io.h).
  template <class Ar>
  void io(Ar& ar) {
    ar(instructions, cycles, stall_cycles, mem_reads, mem_fills,
       mem_writebacks, cpi);
  }
};

/// Decomposition of one completed memory fill, in CPU cycles — built by
/// cpu::System from the request's lifecycle stamps and handed to
/// Core::on_read_complete so the woken core can attribute its critical
/// stall span. Components are clipped sequentially against the actual
/// span, so over-approximation (ratio rounding, forward-charged refresh
/// blocking) never breaks the cycles invariant.
struct FillInfo {
  /// Refresh-lock wait per telemetry::RefreshCause.
  std::array<std::uint64_t, telemetry::kRefreshCauseCount> refresh{};
  std::uint64_t act_wait = 0;       // row activation (bank/row conflict)
  std::uint64_t cas = 0;            // column-access latency
  std::uint64_t bus = 0;            // data-burst transfer
  bool sram = false;                // serviced by the ROP SRAM buffer
};

/// Callback the core uses to push a request into the memory hierarchy.
/// Returns false when the memory cannot accept it this cycle (retry next).
class MemoryPort {
 public:
  virtual ~MemoryPort() = default;
  /// Returns the request id on acceptance, nullopt when the memory cannot
  /// take the request this cycle (retry next).
  virtual std::optional<RequestId> issue_read(CoreId core, Address addr) = 0;
  virtual bool issue_write(CoreId core, Address addr) = 0;
};

class Core {
 public:
  /// With `shared_llc` (multi-core), the core accesses that LLC and builds
  /// none of its own; otherwise it builds a private one from `llc_cfg`.
  Core(CoreId id, const CoreConfig& cfg, const cache::LlcConfig& llc_cfg,
       workload::TraceSource& trace, MemoryPort& port,
       cache::Llc* shared_llc = nullptr);

  /// Advance one CPU cycle. This is the reference implementation every
  /// bulk-advance path must be bit-identical to.
  void cycle();

  /// A read this core issued has completed at CPU cycle `now_cycle`. If it
  /// was the critical load blocking retirement, the slept span (cycles the
  /// event loop never executed on this core) is back-filled as stall in one
  /// add — zero in the per-cycle modes, where a stalled core is billed
  /// every cycle and `cycles` already equals `now_cycle` — and the whole
  /// critical span [critical_since_, now_cycle) is attributed across the
  /// CPI-stack categories from `fill`. The span is identical in every loop
  /// mode (critical_since_ is set at issue, now_cycle is the delivery
  /// cycle, and both are pinned bit-identical), so the decomposition is
  /// mode-invariant by construction.
  void on_read_complete(RequestId id, std::uint64_t now_cycle,
                        const FillInfo& fill) {
    ROP_ASSERT(outstanding_ > 0);
    --outstanding_;
    if (critical_pending_ && *critical_pending_ == id) {
      ROP_ASSERT(now_cycle >= stats_.cycles);
      const std::uint64_t slept = now_cycle - stats_.cycles;
      stats_.cycles += slept;
      stats_.stall_cycles += slept;
      critical_pending_.reset();
      attribute_critical_span(now_cycle, fill);
    }
  }
  void on_read_complete(RequestId id, std::uint64_t now_cycle) {
    on_read_complete(id, now_cycle, FillInfo{});
  }

  /// True while retirement is blocked on an outstanding critical load. In
  /// this state cycle() is a pure stall (cycles and stall_cycles advance,
  /// nothing else), which is what lets the core sleep until the fill
  /// returns.
  [[nodiscard]] bool stalled_on_memory() const {
    return critical_pending_.has_value();
  }

  /// Highest CPU cycle this core can be bulk-advanced to with run_until —
  /// i.e. every cycle before it is provably pure (stall or closed-form gap
  /// retirement). kNeverCycle while asleep on a critical load: the wake
  /// (on_read_complete) bounds the span, not the core. Equal to `cycles`
  /// when the next cycle must execute for real (a memory op, or a trace
  /// fetch — never prefetched, so the RNG draw order matches the naive
  /// loop).
  [[nodiscard]] std::uint64_t next_event_cycle() const {
    if (critical_pending_) return kNeverCycle;
    if (!front_.have_record) return stats_.cycles;
    return stats_.cycles + front_.remaining_gap / cfg_.issue_width;
  }

  /// Advance to `target_cycle` in closed form — exactly equivalent to
  /// calling cycle() `target_cycle - cycles` times. Legal only over pure
  /// spans: while stalled on memory (bulk stall billing), or while the
  /// remaining compute gap covers the whole span at `issue_width` per
  /// cycle (see next_event_cycle). No-op when already at or past the
  /// target, so callers may settle all cores unconditionally.
  void run_until(std::uint64_t target_cycle) {
    if (target_cycle <= stats_.cycles) return;
    const std::uint64_t n = target_cycle - stats_.cycles;
    stats_.cycles = target_cycle;
    if (critical_pending_) {
      // Part of the critical span: attributed at wake (or settled into
      // `other` at end of run), never billed here.
      stats_.stall_cycles += n;
      return;
    }
    ROP_ASSERT(front_.have_record);
    ROP_ASSERT(front_.remaining_gap / cfg_.issue_width >= n);
    stats_.instructions += n * cfg_.issue_width;
    stats_.cpi[CpiCategory::kRetire] += n;
    front_.remaining_gap -= static_cast<std::uint32_t>(n * cfg_.issue_width);
  }

  [[nodiscard]] const CoreStats& stats() const { return stats_; }
  [[nodiscard]] CoreId id() const { return id_; }
  [[nodiscard]] std::uint32_t outstanding() const { return outstanding_; }
  /// The LLC this core accesses: its private one, or the shared one.
  [[nodiscard]] const cache::Llc& llc() const { return *llc_; }
  [[nodiscard]] cache::Llc& llc() { return *llc_; }

  // Micro-architectural state accessors for the determinism suite: a
  // bulk-advanced core must be indistinguishable from one that executed
  // every cycle.
  [[nodiscard]] std::uint32_t remaining_gap() const {
    return front_.remaining_gap;
  }
  [[nodiscard]] bool have_record() const { return front_.have_record; }
  [[nodiscard]] const TraceFront& front() const { return front_; }
  [[nodiscard]] bool mem_op_pending() const { return mem_op_pending_; }
  [[nodiscard]] const std::optional<Address>& pending_writeback() const {
    return pending_writeback_;
  }
  [[nodiscard]] const std::optional<RequestId>& critical_pending() const {
    return critical_pending_;
  }
  [[nodiscard]] const Rng& rng() const { return rng_; }

  /// The CPI stack as exported: the ledger with the span of a
  /// still-pending critical load (decomposed only at wake) folded into
  /// `other`, so it sums to `cycles` without mutating live core state.
  [[nodiscard]] telemetry::CpiStack settled_cpi() const {
    telemetry::CpiStack cpi = stats_.cpi;
    if (critical_pending_) {
      cpi[CpiCategory::kOther] += stats_.cycles - critical_since_;
    }
    return cpi;
  }

  /// Functional warming for the sampled loop: retire `instructions` without
  /// issuing any memory request. Trace records are consumed, the active LLC
  /// is warmed (fills happen, writebacks are dropped — there is no memory
  /// to receive them), and the criticality RNG is drawn per demand-read
  /// miss so the random stream tracks where detailed execution would have
  /// taken it. Cycle cost is the closed-form estimate: compute slots at
  /// `issue_width` per cycle, one cycle per memory op, plus
  /// `critical_penalty` per critical demand-read miss. Returns the cycles
  /// charged; stats_.instructions/cycles advance, memory-traffic counters
  /// do not (no requests exist). Requires no outstanding misses — the
  /// caller drains in-flight reads before switching to functional mode.
  /// It is the record walk (cpu/record_walk.h) fused with the two halves
  /// below.
  std::uint64_t functional_advance(std::uint64_t instructions,
                                   Cycle critical_penalty);

  /// functional_advance split for a backbone whose record walk runs on
  /// another thread (sim/backbone_walker.h). functional_apply is the LLC
  /// half: it takes walked memory ops, in trace order, through the LLC
  /// and the criticality draw, and returns their cycles (one per op plus
  /// the critical penalties). Feed a step's ops in any number of calls.
  std::uint64_t functional_apply(const WalkedOp* ops, std::size_t n,
                                 Cycle critical_penalty) {
    std::uint64_t cycles = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool write = op_is_write(ops[i]);
      cycles += functional_op_cycles(!llc_->access(op_addr(ops[i]), write).hit,
                                     write, critical_penalty);
    }
    return cycles;
  }

  /// Close a fed step: the walk retired `instructions`, `slots` of them
  /// compute slots, and left the trace at `front`; `op_cycles` is what
  /// functional_apply returned for its ops. Charges the step exactly as
  /// functional_advance would have and returns its cycles. The walk must
  /// have started from this core's front(), and no detailed window may
  /// have left an op half-issued.
  std::uint64_t functional_commit(const TraceFront& front,
                                  std::uint64_t instructions,
                                  std::uint64_t slots,
                                  std::uint64_t op_cycles) {
    ROP_ASSERT(!mem_op_pending_);
    front_ = front;
    return charge_functional(instructions, slots, op_cycles);
  }

  /// Sampled-mode clock alignment: jump this core's clock to
  /// `target_cycle`, billing the span as stall. Functional windows leave
  /// cores at heterogeneous estimated clocks; detailed execution needs
  /// them on one global cycle (run_until cannot do this — it requires a
  /// provably pure span, which an estimated jump is not).
  void align_cycles(std::uint64_t target_cycle) {
    if (target_cycle <= stats_.cycles) return;
    const std::uint64_t span = target_cycle - stats_.cycles;
    stats_.stall_cycles += span;
    // An estimated jump has no micro-architectural cause to blame.
    if (!critical_pending_) stats_.cpi[CpiCategory::kOther] += span;
    stats_.cycles = target_cycle;
  }

  /// Snapshot serialization: trace cursor, retirement state, MLP window,
  /// criticality RNG, stats, and the private LLC when the core has one. The
  /// shared LLC and the trace source are serialized by their owners.
  template <class Ar>
  void io(Ar& ar) {
    ar(front_.current, front_.have_record, front_.remaining_gap,
       pending_writeback_, mem_op_pending_, outstanding_, critical_pending_,
       critical_since_, rng_, stats_);
    if (private_llc_ != nullptr) ar.field(*private_llc_);
  }

 private:
  /// Why the most recent zero-retirement cycle retired nothing. Set by
  /// do_mem_op before every failing return; consumed by cycle() the same
  /// cycle, so it is dead state between cycles and never serialized.
  enum class BlockReason : std::uint8_t { kNone, kMlp, kPort };

  /// Attempt the memory operation of the current record. Returns true when
  /// it retired (the core may advance to the next record).
  bool do_mem_op();

  /// A functional memory op's cycles: one to issue, plus
  /// `critical_penalty` when a demand read missed and the draw marks it
  /// critical (the draw happens only then, as in detailed execution).
  std::uint64_t functional_op_cycles(bool miss, bool is_write,
                                     Cycle critical_penalty) {
    return miss && !is_write && critical_.draw(rng_) ? 1 + critical_penalty
                                                     : 1;
  }

  /// Bill a functional step: compute slots at issue_width per cycle plus
  /// `op_cycles`, all of it estimated. Drops any writeback still waiting
  /// for the bus: there is no memory in functional mode, and the LLC line
  /// it came from is already clean.
  std::uint64_t charge_functional(std::uint64_t instructions,
                                  std::uint64_t slots,
                                  std::uint64_t op_cycles);

  /// Decompose the just-ended critical span [critical_since_, now_cycle)
  /// across the CPI-stack categories. Components are clipped sequentially:
  /// refresh causes first, in RefreshCause order (the headline metric gets
  /// full credit), then the SRAM-fill residual or the ACT/CAS/bus chain,
  /// with whatever remains billed as queue wait. Clipping absorbs
  /// cpu-ratio rounding and the forward-charged over-approximation of
  /// refresh blocking, so the sum never exceeds the actual span.
  void attribute_critical_span(std::uint64_t now_cycle, const FillInfo& fill) {
    std::uint64_t rem = now_cycle - critical_since_;
    const auto clip = [&rem](std::uint64_t want) {
      const std::uint64_t take = std::min(want, rem);
      rem -= take;
      return take;
    };
    telemetry::CpiStack& cpi = stats_.cpi;
    for (std::size_t k = 0; k < telemetry::kRefreshCauseCount; ++k) {
      cpi.cycles[telemetry::kRefreshCategoryBase + k] += clip(fill.refresh[k]);
    }
    if (fill.sram) {
      // Everything past the refresh locks was spent waiting on the SRAM
      // buffer path — the revived-service residual.
      cpi[CpiCategory::kRopSram] += rem;
    } else {
      cpi[CpiCategory::kMemBank] += clip(fill.act_wait);
      cpi[CpiCategory::kMemCas] += clip(fill.cas);
      cpi[CpiCategory::kMemBus] += clip(fill.bus);
      cpi[CpiCategory::kMemQueue] += rem;
    }
  }
  CoreId id_;
  CoreConfig cfg_;
  std::unique_ptr<cache::Llc> private_llc_;  // null when sharing an LLC
  cache::Llc* llc_ = nullptr;                // the LLC accesses go to
  workload::TraceSource& trace_;
  MemoryPort& port_;

  TraceFront front_;
  std::optional<Address> pending_writeback_;
  bool mem_op_pending_ = false;  // current record's op could not issue yet

  std::uint32_t outstanding_ = 0;
  std::optional<RequestId> critical_pending_;
  // CPU cycle the pending critical load issued at — start of the span
  // attribute_critical_span decomposes at wake. Loop-invariant: set inside
  // do_mem_op, which every loop mode executes at the same cycle.
  std::uint64_t critical_since_ = 0;
  BlockReason block_reason_ = BlockReason::kNone;
  Bernoulli critical_;  // cfg_.critical_load_fraction as a threshold
  Rng rng_;
  CoreStats stats_;
};

}  // namespace rop::cpu
