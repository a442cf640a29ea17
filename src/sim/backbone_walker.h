// The pipelined functional backbone's walker: a thread that walks every
// core's trace one planning chunk ahead of the planner, so the planner's
// functional windows only apply the walked memory ops to the LLC.
//
// Why it is exact. A chunk's records, its compute slots and the core's
// end-of-chunk trace front (record in hand, gap still owed) depend only on
// the trace: the record walk (cpu/record_walk.h) never reads an LLC
// outcome or the criticality RNG. The backbone never runs a detailed
// cycle, so no chunk starts with a miss outstanding or an op half-issued.
// The walker therefore produces the same op stream the serial backbone
// would pull, and the planner's LLC accesses and criticality draws happen
// in the serial order. Snapshots land only between chunks, where the
// planner has installed each core's walked front and its generator's
// State (workload/synthetic.h) into the backbone, so a snapshot holds
// exactly the bytes the serial backbone would have written.
//
// Ring layout. A fixed ring of kRingBlocks blocks of kBlockOps ops, each
// op 8 bytes (cpu::WalkedOp: the line address with the write flag in bit
// 0). The walker fills blocks in planner order — chunk by chunk, and
// within a chunk core by core, as System::functional_window steps them.
// A block holds ops of one core's chunk only; the block that ends it also
// carries the chunk's compute slots, the front and the generator State.
// Every buffer is allocated on the planner's thread before the walker
// starts, and the walked generators have their gap tables built, so the
// walker thread makes no heap allocation.
#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "cpu/record_walk.h"
#include "sim/sim_instance.h"
#include "workload/synthetic.h"

namespace rop::sim {

class BackboneWalker {
 public:
  /// 8 blocks of 512 ops: 32 KiB of ring. 2048-op blocks ran no faster
  /// and raised the sampled headline's peak RSS by about 2%
  /// (docs/PERFORMANCE.md §14).
  static constexpr std::size_t kBlockOps = 512;
  static constexpr std::size_t kRingBlocks = 8;

  /// Start walking `chunks` chunks of `chunk_instructions` on every core
  /// of `backbone`, from where its cores and generators stand now. The
  /// backbone must outlive the walker.
  BackboneWalker(SimInstance& backbone, std::uint64_t chunk_instructions,
                 std::uint64_t chunks);
  ~BackboneWalker() { stop(); }
  BackboneWalker(const BackboneWalker&) = delete;
  BackboneWalker& operator=(const BackboneWalker&) = delete;

  /// The planner's per-core step of a functional window: apply `core`'s
  /// next walked chunk to its LLC, then install the chunk's front and
  /// generator State in the backbone. Leaves the core and its generator
  /// as Core::functional_advance(chunk_instructions, critical_penalty)
  /// would have.
  void apply_chunk(cpu::Core& core, Cycle critical_penalty);

  /// Stop the walker and join its thread. Idempotent; the planner calls
  /// it on every exit from its loop, however early.
  void stop();

 private:
  struct Block {
    std::array<cpu::WalkedOp, kBlockOps> ops;
    std::size_t size = 0;
    CoreId core = 0;
    bool ends_chunk = false;
    // Valid when ends_chunk.
    std::uint64_t slots = 0;
    cpu::TraceFront front;
    workload::SyntheticTrace::State generator;
  };

  void walker_main();
  /// Walker side: the next free block (immediately once stopped). A
  /// walker that finds the ring full sleeps until half of it is drained.
  Block& acquire();
  /// Walker side: hand the acquired block to the planner. False once the
  /// planner has stopped the walker.
  bool publish();
  /// Planner side: the oldest filled block, and its return to the walker.
  /// A planner that finds the ring empty sleeps until half of it is
  /// filled or the walker is done.
  const Block& wait_filled();
  void release();

  std::uint64_t chunk_;
  std::uint64_t chunks_;
  std::vector<workload::SyntheticTrace*> backbone_traces_;
  // Walker-owned: the walked generators and fronts, one per core.
  std::vector<workload::SyntheticTrace> traces_;
  std::vector<cpu::TraceFront> fronts_;

  std::vector<Block> blocks_;
  std::mutex mutex_;
  std::condition_variable filled_;   // walker -> planner
  std::condition_variable drained_;  // planner -> walker
  std::uint64_t produced_ = 0;
  std::uint64_t consumed_ = 0;
  bool stop_ = false;
  bool walker_done_ = false;  // walked every chunk, or stopped

  std::thread thread_;
};

}  // namespace rop::sim
