#include "telemetry/epoch_sampler.h"

#include <cstdio>

namespace rop::telemetry {

EpochSampler::EpochSampler(const SamplerConfig& cfg, StatRegistry* stats)
    : cfg_(cfg) {
  ROP_ASSERT(stats != nullptr);
  ROP_ASSERT(cfg_.max_epochs > 0);
  if (!enabled()) {
    closed_ = true;  // advance_to stays a no-op forever
    return;
  }
  // Every registered counter: construct the sampler after the full system
  // so all subsystems have registered.
  for (const auto& [name, counter] : stats->counters()) {
    names_.push_back(name);
    handles_.push_back(&counter);
  }
  prev_.assign(handles_.size(), 0);
  deltas_.assign(cfg_.max_epochs * handles_.size(), 0);
  ends_.assign(cfg_.max_epochs, 0);
  next_boundary_ = cfg_.epoch_cycles;
}

void EpochSampler::take_sample(Cycle end_cycle) {
  std::size_t slot;
  if (rows_ < cfg_.max_epochs) {
    slot = (first_row_ + rows_) % cfg_.max_epochs;
    ++rows_;
  } else {
    if (!warned_drop_) {
      warned_drop_ = true;
      std::fprintf(stderr,
                   "epoch sampler: ring full at %zu epochs — dropping oldest "
                   "(raise SamplerConfig::max_epochs or the epoch period; "
                   "the stats JSON reports the count as dropped_epochs)\n",
                   cfg_.max_epochs);
    }
    slot = first_row_;
    first_row_ = (first_row_ + 1) % cfg_.max_epochs;
    ++first_epoch_;
  }
  ends_[slot] = end_cycle;
  std::uint64_t* row = &deltas_[slot * handles_.size()];
  for (std::size_t c = 0; c < handles_.size(); ++c) {
    const std::uint64_t v = handles_[c]->value();
    row[c] = v - prev_[c];
    prev_[c] = v;
  }
}

void EpochSampler::catch_up(Cycle now) {
  while (next_boundary_ <= now) {
    take_sample(next_boundary_);
    next_boundary_ += cfg_.epoch_cycles;
  }
}

void EpochSampler::close(Cycle end) {
  if (closed_) return;
  advance_to(end);
  closed_ = true;
  // Trailing partial epoch: covers (last boundary, end]. Note the run's
  // end-of-run publications (e.g. the per-core counter mirrors in
  // cpu::System::run) land here, not in a live series.
  const Cycle last_boundary = next_boundary_ - cfg_.epoch_cycles;
  if (end > last_boundary) take_sample(end);
}

Cycle EpochSampler::epoch_end(std::size_t i) const {
  ROP_ASSERT(i < rows_);
  return ends_[(first_row_ + i) % cfg_.max_epochs];
}

std::uint64_t EpochSampler::delta(std::size_t i, std::size_t c) const {
  ROP_ASSERT(i < rows_);
  ROP_ASSERT(c < handles_.size());
  return deltas_[((first_row_ + i) % cfg_.max_epochs) * handles_.size() + c];
}

}  // namespace rop::telemetry
