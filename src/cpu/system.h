// Multi-core system assembly: cores + LLC + the memory system, with clock
// coupling (the CPU runs `cpu_ratio` cycles per controller cycle) and
// physical address relocation (flat per-core regions, or rank partitioning
// per the paper's 4-core methodology).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/llc.h"
#include "common/types.h"
#include "cpu/core.h"
#include "mem/memory_system.h"
#include "workload/trace.h"

namespace rop::mem {
class ShardPool;
}

namespace rop::cpu {

/// Simulation-loop strategy. All three produce bit-identical results
/// (enforced by the determinism tests); they differ only in which cycles
/// they prove skippable.
enum class LoopMode : std::uint8_t {
  /// Reference loop: every core cycles every CPU cycle, the memory ticks
  /// at every controller boundary.
  kNaive,
  /// The PR-3 strategy: event-driven memory clock, plus a CPU-clock jump
  /// only when *every* core is stalled on memory (the paper's frozen
  /// cycles). One running core forces per-cycle execution of all cores.
  kFrozenStall,
  /// Unified next-event loop: per-core next events (closed-form compute-gap
  /// retirement, sleeping stalled cores with wake back-fill) folded with
  /// the memory next-event bound, so the clock jumps whenever *each* core
  /// is individually in a provably pure span.
  kEventDriven,
};

struct SystemConfig {
  std::uint32_t cpu_ratio = 4;  // 3.2 GHz cores over an 800 MHz controller
  CoreConfig core{};
  cache::LlcConfig llc{};
  bool shared_llc = true;   // multi-core: one LLC shared by all cores
  bool rank_partition = false;  // paper §IV-A rank-aware mapping
  /// See LoopMode; kNaive is the cross-checking reference.
  LoopMode loop = LoopMode::kEventDriven;
  /// > 0: run the channel-sharded loop with this many shards (clamped to
  /// the channel count). Requires kEventDriven, per-channel stats on the
  /// memory system, and no trace sink; bit-identical to the serial loop
  /// (see mem/shard_pool.h). 0 = the serial loops above.
  std::uint32_t shard_channels = 0;
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
  /// summing exactly to cpu_cycles: any still-unresolved critical span is
  /// folded into `other_cycles` at freeze time (see
  /// Core::unresolved_stall_cycles).
  std::uint64_t retire_cycles = 0;
  std::uint64_t stall_mlp_cycles = 0;
  std::uint64_t stall_port_cycles = 0;
  std::uint64_t stall_mem_queue_cycles = 0;
  std::uint64_t stall_mem_bank_cycles = 0;
  std::uint64_t stall_mem_cas_cycles = 0;
  std::uint64_t stall_mem_bus_cycles = 0;
  std::uint64_t stall_refresh_rank_cycles = 0;
  std::uint64_t stall_refresh_bank_cycles = 0;
  std::uint64_t stall_refresh_subarray_cycles = 0;
  std::uint64_t stall_refresh_pause_cycles = 0;
  std::uint64_t stall_rop_sram_cycles = 0;
  std::uint64_t other_cycles = 0;

  [[nodiscard]] std::uint64_t cpi_stack_sum() const {
    return retire_cycles + stall_mlp_cycles + stall_port_cycles +
           stall_mem_queue_cycles + stall_mem_bank_cycles +
           stall_mem_cas_cycles + stall_mem_bus_cycles +
           stall_refresh_rank_cycles + stall_refresh_bank_cycles +
           stall_refresh_subarray_cycles + stall_refresh_pause_cycles +
           stall_rop_sram_cycles + other_cycles;
  }

  /// Snapshot serialization (see common/snapshot_io.h).
  template <class Ar>
  void io(Ar& ar) {
    ar(instructions, cpu_cycles, ipc, mem_reads, mem_writebacks,
       retire_cycles, stall_mlp_cycles, stall_port_cycles,
       stall_mem_queue_cycles, stall_mem_bank_cycles, stall_mem_cas_cycles,
       stall_mem_bus_cycles, stall_refresh_rank_cycles,
       stall_refresh_bank_cycles, stall_refresh_subarray_cycles,
       stall_refresh_pause_cycles, stall_rop_sram_cycles, other_cycles);
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
  /// begin_run arms the loop (and builds the shard pool when sharded);
  /// advance_until executes until `stop_cpu` (clamped to the cycle limit)
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

  /// Sampled-execution fast-forward (SMARTS functional warming): drain the
  /// cores' outstanding misses, retire `instructions_per_core` on every
  /// core via Core::functional_advance (LLC warmed, RNG stream preserved,
  /// no memory requests), advance the memory event-driven through the
  /// estimated span (refreshes fire at their natural times with no demand
  /// arrivals), then re-align all clocks to one window boundary so
  /// detailed execution can resume. Serial loops only (no shard pool).
  /// Returns the CPU cycles the window consumed.
  std::uint64_t functional_window(std::uint64_t instructions_per_core,
                                  Cycle critical_penalty);

  [[nodiscard]] bool run_active() const { return loop_.active; }
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

  /// Snapshot serialization: the live loop cursor, partial results, memory
  /// clock flags, the shared LLC (if any), every core, and (when sharded)
  /// the pool's per-channel event clocks. Legal only between advance_until
  /// calls of an active run; the restoring side must have called begin_run
  /// with the same spec so the pool exists on both sides.
  template <class Ar>
  void io(Ar& ar) {
    ar(loop_, mem_now_, mem_dirty_);
    if (shared_llc_ != nullptr) ar.field(*shared_llc_);
    for (auto& core : cores_) ar.field(*core);
    if (pool_ != nullptr) ar.field(*pool_);
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

  /// Copy core `c`'s CPI-stack ledger into `r`, folding any unresolved
  /// critical span into `other` so the published stack sums to cpu_cycles.
  void freeze_cpi_stack(std::size_t c, CoreResult& r) const;

  /// Decompose a completed fill into CPU-cycle blame components for
  /// Core::attribute_critical_span (pure function of the request).
  [[nodiscard]] FillInfo make_fill(const mem::Request& req) const;

  /// Relocate a core-local address into the physical address space (bases
  /// precomputed at construction; see reloc_base_line_).
  [[nodiscard]] Address relocate(CoreId core, Address local) const;

  /// True when every core is blocked on an outstanding critical load —
  /// the "frozen cycles" of the paper's title.
  [[nodiscard]] bool all_cores_stalled() const;

  /// Highest CPU cycle the whole system can be bulk-advanced to from
  /// `cpu_cycle` (exclusive caps folded: memory next event / dirty
  /// boundary, per-core next events, instruction-target crossings). A
  /// result <= cpu_cycle means the next cycle must execute.
  [[nodiscard]] std::uint64_t skip_target(
      std::uint64_t cpu_cycle, std::uint64_t next_window_cpu,
      Cycle mem_next_event, std::uint64_t target_instructions,
      std::uint64_t max_cpu_cycles, const std::vector<bool>& crossed) const;

  /// Per-core registry mirrors ("coreN.*"), resolved at construction and
  /// published once at the end of run().
  struct CoreStatHandles {
    Counter* instructions = nullptr;
    Counter* cycles = nullptr;
    Counter* stall_cycles = nullptr;
    Counter* mem_reads = nullptr;
    Counter* mem_fills = nullptr;
    Counter* mem_writebacks = nullptr;
    // CPI-stack mirrors ("coreN.cpi.*"), published once at finish_run.
    Counter* cpi_retire = nullptr;
    Counter* cpi_stall_mlp = nullptr;
    Counter* cpi_stall_port = nullptr;
    Counter* cpi_mem_queue = nullptr;
    Counter* cpi_mem_bank = nullptr;
    Counter* cpi_mem_cas = nullptr;
    Counter* cpi_mem_bus = nullptr;
    Counter* cpi_refresh_rank = nullptr;
    Counter* cpi_refresh_bank = nullptr;
    Counter* cpi_refresh_subarray = nullptr;
    Counter* cpi_refresh_pause = nullptr;
    Counter* cpi_rop_sram = nullptr;
    Counter* cpi_other = nullptr;
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
  /// Set by issue_read/issue_write when a request lands: the cached
  /// next-event cycle is stale and the next boundary tick must execute.
  bool mem_dirty_ = false;
  /// Live between begin_run and finish_run when cfg_.shard_channels > 0:
  /// lets the issue hooks re-arm just the channel that accepted the
  /// request, and carries the per-channel event clocks across snapshots.
  std::unique_ptr<mem::ShardPool> pool_;
  LoopState loop_;
};

}  // namespace rop::cpu
