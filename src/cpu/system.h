// Multi-core system assembly: cores + LLC + the memory system, with clock
// coupling (the CPU runs `cpu_ratio` cycles per controller cycle) and
// physical address relocation (flat per-core regions, or rank partitioning
// per the paper's 4-core methodology).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/llc.h"
#include "common/types.h"
#include "cpu/core.h"
#include "mem/channel_clocks.h"
#include "mem/memory_system.h"
#include "workload/trace.h"

namespace rop::cpu {

/// Simulation-loop strategy. Both produce bit-identical results (enforced
/// by the determinism tests); they differ only in which cycles they prove
/// skippable. The values are pinned: they appear in the canonical spec
/// string, so every snapshot fingerprint depends on them (1 was the retired
/// all-cores-stalled loop).
enum class LoopMode : std::uint8_t {
  /// Reference loop: every core cycles every CPU cycle, the memory ticks
  /// at every controller boundary.
  kNaive = 0,
  /// Unified next-event loop: per-core next events (closed-form compute-gap
  /// retirement, sleeping stalled cores with wake back-fill) folded with
  /// the memory's next delivery bound, so the clock jumps whenever *each*
  /// core is individually in a provably pure span. Every channel advances
  /// on its own event clock (see mem/channel_clocks.h).
  kEventDriven = 2,
};

struct SystemConfig {
  std::uint32_t cpu_ratio = 4;  // 3.2 GHz cores over an 800 MHz controller
  CoreConfig core{};
  cache::LlcConfig llc{};
  bool shared_llc = true;   // multi-core: one LLC shared by all cores
  bool rank_partition = false;  // paper §IV-A rank-aware mapping
  /// See LoopMode; kNaive is the cross-checking reference.
  LoopMode loop = LoopMode::kEventDriven;
};

/// Per-core results frozen the cycle the core crossed its instruction
/// target (standard multi-programmed methodology: the run continues so
/// contention stays realistic, but metrics stop accumulating).
struct CoreResult {
  std::uint64_t instructions = 0;
  std::uint64_t cpu_cycles = 0;
  double ipc = 0.0;
  std::uint64_t mem_reads = 0;
  std::uint64_t mem_writebacks = 0;

  /// CPI stack frozen with the rest of the metrics. Disjoint categories
  /// summing exactly to cpu_cycles (see Core::settled_cpi).
  telemetry::CpiStack cpi;

  [[nodiscard]] std::uint64_t cpi_stack_sum() const { return cpi.sum(); }

  /// Snapshot serialization (see common/snapshot_io.h).
  template <class Ar>
  void io(Ar& ar) {
    ar(instructions, cpu_cycles, ipc, mem_reads, mem_writebacks, cpi);
  }
};

struct RunResult {
  std::vector<CoreResult> cores;
  std::uint64_t cpu_cycles = 0;  // cycles until every core crossed target
  Cycle mem_cycles = 0;
  bool hit_cycle_limit = false;

  [[nodiscard]] double ipc(std::size_t core) const { return cores.at(core).ipc; }
};

class System final : public MemoryPort {
 public:
  /// `traces` supplies one source per core; all pointers must outlive the
  /// system. The memory system must be configured with enough ranks when
  /// rank partitioning is on.
  System(const SystemConfig& cfg, mem::MemorySystem& memory,
         std::vector<workload::TraceSource*> traces);
  ~System() override;

  /// Run until every core has retired `target_instructions` (or the cycle
  /// limit is reached). Returns frozen per-core metrics. Equivalent to
  /// begin_run + advance_until(max) + finish_run.
  RunResult run(std::uint64_t target_instructions,
                std::uint64_t max_cpu_cycles);

  /// Segmented execution, the substrate for checkpoints and sampling.
  /// begin_run arms the loop; advance_until executes until `stop_cpu` (clamped to the cycle limit)
  /// or until every core crossed the target, returning true when the run
  /// is over (all crossed, or limit hit); finish_run settles cores,
  /// sampler, and memory, and produces the result. A run split at any
  /// advance_until boundary executes bit-identical operations to the
  /// unbroken run: stops land either between executed CPU cycles or at a
  /// clamped bulk-advance target, both of which compose exactly (pure-span
  /// run_until is additive, and a mid-span memory-window visit is a
  /// provable no-op tick).
  void begin_run(std::uint64_t target_instructions,
                 std::uint64_t max_cpu_cycles);
  bool advance_until(std::uint64_t stop_cpu);
  RunResult finish_run();

  /// Sampled-execution fast-forward (SMARTS functional warming): retire
  /// `instructions_per_core` on every core via Core::functional_advance
  /// (LLC warmed, RNG stream preserved, no memory requests), advance the
  /// memory event-driven through the estimated span (refreshes fire at
  /// their natural times with no demand arrivals), then re-align all
  /// clocks to one window boundary. Must be entered on a memory-window
  /// boundary with no reads in flight, as the sampling planner's
  /// functional-only backbone always is. Event-driven loop only. Returns
  /// the CPU cycles the window consumed.
  std::uint64_t functional_window(std::uint64_t instructions_per_core,
                                  Cycle critical_penalty);

  /// The same window with the per-core step supplied: `step` runs once per
  /// core, in core order, and must leave the core as
  /// Core::functional_advance would (the pipelined planner feeds it a
  /// chunk walked on another thread; see sim/backbone_walker.h).
  using FunctionalStep = std::function<void(Core& core)>;
  std::uint64_t functional_window(const FunctionalStep& step);

  [[nodiscard]] std::uint64_t cpu_cycle() const { return loop_.cpu_cycle; }
  [[nodiscard]] std::uint64_t max_cpu_cycles() const {
    return loop_.max_cpu_cycles;
  }
  /// Cores still short of the instruction target (0 = natural end).
  [[nodiscard]] std::uint64_t cores_remaining() const {
    return loop_.remaining;
  }

  // MemoryPort
  std::optional<RequestId> issue_read(CoreId core, Address addr) override;
  bool issue_write(CoreId core, Address addr) override;

  [[nodiscard]] std::uint32_t num_cores() const {
    return static_cast<std::uint32_t>(cores_.size());
  }
  [[nodiscard]] const Core& core(CoreId c) const { return *cores_.at(c); }
  /// The LLC all cores share. Only a multi-core run with
  /// SystemConfig::shared_llc has one.
  [[nodiscard]] const cache::Llc& shared_llc() const {
    ROP_ASSERT(shared_llc_ != nullptr);
    return *shared_llc_;
  }
  /// LLC misses so far, summed over the LLC(s) the run uses: the shared
  /// one, or every core's private one.
  [[nodiscard]] std::uint64_t llc_misses() const;
  [[nodiscard]] Cycle mem_now() const { return mem_now_; }
  [[nodiscard]] std::uint32_t cpu_ratio() const { return cfg_.cpu_ratio; }

  /// Snapshot serialization: the live loop cursor, partial results, the
  /// memory clock, the shared LLC (if any), every core, and the
  /// per-channel event clocks. Legal only between advance_until calls of
  /// an active event-driven run.
  template <class Ar>
  void io(Ar& ar) {
    ar(loop_, mem_now_);
    if (shared_llc_ != nullptr) ar.field(*shared_llc_);
    for (auto& core : cores_) ar.field(*core);
    ar.field(clocks_);
  }

 private:
  /// The run() loop cursor, hoisted into a member so a snapshot taken
  /// between advance_until segments captures the exact loop-visit state
  /// (Controller::tick is not idempotent — the split run must execute
  /// literally the same operations, not just reach the same cycle).
  struct LoopState {
    bool active = false;
    std::uint64_t target_instructions = 0;
    std::uint64_t max_cpu_cycles = 0;
    std::uint64_t cpu_cycle = 0;
    std::uint64_t next_window_cpu = 0;  // first CPU cycle of the next window
    Cycle mem_next_event = 0;  // next memory cycle whose tick must execute
    std::vector<bool> crossed;
    std::uint64_t remaining = 0;
    std::vector<CoreResult> partial;  // crossing snapshots, frozen

    template <class Ar>
    void io(Ar& ar) {
      ar(active, target_instructions, max_cpu_cycles, cpu_cycle,
         next_window_cpu, mem_next_event, crossed, remaining, partial);
    }
  };

  /// Freeze core `c`'s metrics at its instruction-target crossing.
  void record_crossing(std::size_t c);

  /// Core `c`'s metrics as they stand now, CPI stack settled.
  [[nodiscard]] CoreResult freeze(std::size_t c) const;

  /// Decompose a completed fill into CPU-cycle blame components for
  /// Core::attribute_critical_span (pure function of the request).
  [[nodiscard]] FillInfo make_fill(const mem::Request& req) const;

  /// Re-arm channel `ch`'s event clock after it accepted a request at
  /// mem_now_ (see enqueue_bound_).
  void note_enqueue(ChannelId ch);

  /// Relocate a core-local address into the physical address space (bases
  /// precomputed at construction; see reloc_base_line_).
  [[nodiscard]] Address relocate(CoreId core, Address local) const;

  /// Highest CPU cycle the whole system can be bulk-advanced to from
  /// `cpu_cycle` (exclusive caps folded: the memory's next required visit,
  /// per-core next events, instruction-target crossings). A
  /// result <= cpu_cycle means the next cycle must execute.
  [[nodiscard]] std::uint64_t skip_target(
      std::uint64_t cpu_cycle, Cycle mem_next_event,
      std::uint64_t target_instructions, std::uint64_t max_cpu_cycles,
      const std::vector<bool>& crossed) const;

  /// Per-core registry mirrors ("coreN.*"), resolved at construction and
  /// published once at the end of run().
  struct CoreStatHandles {
    Counter* instructions = nullptr;
    Counter* cycles = nullptr;
    Counter* stall_cycles = nullptr;
    Counter* mem_reads = nullptr;
    Counter* mem_fills = nullptr;
    Counter* mem_writebacks = nullptr;
    // CPI-stack mirrors ("coreN.cpi.<key>"), in CpiCategory order.
    std::array<Counter*, telemetry::kCpiCategoryCount> cpi{};
  };

  SystemConfig cfg_;
  mem::MemorySystem& memory_;
  std::unique_ptr<cache::Llc> shared_llc_;  // null unless shared
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<CoreStatHandles> core_stat_handles_;
  /// Flat-layout relocation, hoisted out of the per-request path: each
  /// core's region base line and the shared region size (relocate() pays
  /// the modulo only when a footprint actually exceeds its region).
  /// reloc_rank_ is the precomputed `core % ranks` for rank partitioning.
  std::uint64_t region_lines_ = 0;
  std::vector<std::uint64_t> reloc_base_line_;
  std::vector<std::uint32_t> reloc_rank_;
  /// CAS latency and data-burst length in CPU cycles, precomputed from the
  /// memory timings for make_fill.
  std::uint64_t cas_cpu_ = 0;
  std::uint64_t bus_cpu_ = 0;
  Cycle mem_now_ = 0;
  /// The earliest delivery bound of the requests accepted in the CPU cycle
  /// being executed; advance_until folds it into mem_next_event right
  /// after the cycle (kNeverCycle between cycles).
  Cycle enqueue_bound_ = kNeverCycle;
  /// The event-driven loop's per-channel memory clocks (unused by kNaive,
  /// which ticks every channel at every boundary).
  mem::ChannelClocks clocks_;
  LoopState loop_;
};

}  // namespace rop::cpu
