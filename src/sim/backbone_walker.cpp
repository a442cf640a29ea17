#include "sim/backbone_walker.h"

namespace rop::sim {

BackboneWalker::BackboneWalker(SimInstance& backbone,
                               std::uint64_t chunk_instructions,
                               std::uint64_t chunks)
    : chunk_(chunk_instructions), chunks_(chunks), blocks_(kRingBlocks) {
  const cpu::System& system = *backbone.system;
  ROP_ASSERT(backbone.traces.size() == system.num_cores());
  traces_.reserve(backbone.traces.size());
  for (CoreId c = 0; c < system.num_cores(); ++c) {
    backbone_traces_.push_back(backbone.traces[c].get());
    traces_.push_back(*backbone.traces[c]);
    traces_.back().prepare();
    fronts_.push_back(system.core(c).front());
    for (Block& b : blocks_) b.generator.reserve(traces_.back().config());
  }
  thread_ = std::thread([this] { walker_main(); });
}

void BackboneWalker::walker_main() {
  bool running = true;
  for (std::uint64_t i = 0; running && i < chunks_; ++i) {
    for (std::size_t c = 0; running && c < traces_.size(); ++c) {
      Block* block = &acquire();
      std::size_t n = 0;
      const std::uint64_t slots = cpu::walk_records(
          traces_[c], fronts_[c], chunk_,
          [&](const workload::TraceRecord& rec) {
            if (n == kBlockOps) {
              block->size = n;
              block->core = static_cast<CoreId>(c);
              block->ends_chunk = false;
              (void)publish();  // a stop is acted on at the chunk's end
              block = &acquire();
              n = 0;
            }
            block->ops[n++] = cpu::pack_op(rec);
          });
      block->size = n;
      block->core = static_cast<CoreId>(c);
      block->ends_chunk = true;
      block->slots = slots;
      block->front = fronts_[c];
      block->generator = traces_[c].state();
      running = publish();
    }
  }
  {
    std::lock_guard<std::mutex> lk(mutex_);
    walker_done_ = true;
  }
  filled_.notify_one();
}

// Each side sleeps until the other has moved half a ring, so a hand-over
// costs one wake per kRingBlocks / 2 blocks rather than one per block when
// the two halves run at about the same speed.

BackboneWalker::Block& BackboneWalker::acquire() {
  std::unique_lock<std::mutex> lk(mutex_);
  if (produced_ - consumed_ == kRingBlocks) {
    drained_.wait(lk, [&] {
      return stop_ || produced_ - consumed_ <= kRingBlocks / 2;
    });
  }
  // Once stopped, the planner reads no block again, so any may be reused.
  return blocks_[produced_ % kRingBlocks];
}

bool BackboneWalker::publish() {
  bool stopped;
  bool half_full;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    ++produced_;
    stopped = stop_;
    half_full = produced_ - consumed_ >= kRingBlocks / 2;
  }
  if (half_full) filled_.notify_one();
  return !stopped;
}

const BackboneWalker::Block& BackboneWalker::wait_filled() {
  std::unique_lock<std::mutex> lk(mutex_);
  if (consumed_ == produced_) {
    filled_.wait(lk, [&] {
      return walker_done_ || produced_ - consumed_ >= kRingBlocks / 2;
    });
  }
  ROP_ASSERT(consumed_ < produced_ && "the planner outran the walked chunks");
  return blocks_[consumed_ % kRingBlocks];
}

void BackboneWalker::release() {
  bool half_empty;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    ++consumed_;
    half_empty = produced_ - consumed_ <= kRingBlocks / 2;
  }
  if (half_empty) drained_.notify_one();
}

void BackboneWalker::apply_chunk(cpu::Core& core, Cycle critical_penalty) {
  std::uint64_t op_cycles = 0;
  for (;;) {
    const Block& b = wait_filled();
    ROP_ASSERT(b.core == core.id());
    op_cycles += core.functional_apply(b.ops.data(), b.size, critical_penalty);
    const bool last = b.ends_chunk;
    if (last) {
      backbone_traces_[core.id()]->set_state(b.generator);
      core.functional_commit(b.front, chunk_, b.slots, op_cycles);
    }
    release();
    if (last) return;
  }
}

void BackboneWalker::stop() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
  }
  drained_.notify_one();
  if (thread_.joinable()) thread_.join();
}

}  // namespace rop::sim
