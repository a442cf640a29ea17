#include "mem/memory_system.h"

#include "telemetry/epoch_sampler.h"

namespace rop::mem {

MemorySystem::MemorySystem(const MemoryConfig& cfg, StatRegistry* stats)
    : cfg_(cfg), map_(cfg_.org), stats_(stats) {
  ROP_ASSERT(stats != nullptr);
  ROP_ASSERT(dram::validate(cfg_.timings));
  controllers_.reserve(cfg_.org.channels);
  for (ChannelId ch = 0; ch < cfg_.org.channels; ++ch) {
    controllers_.push_back(std::make_unique<Controller>(
        ch, cfg_.timings, cfg_.org, cfg_.ctrl, stats_));
  }
}

bool MemorySystem::can_accept(Address byte_addr, ReqType type) const {
  const DramCoord coord = map_.map(byte_addr);
  return controllers_.at(coord.channel)->can_accept(type);
}

std::optional<RequestId> MemorySystem::enqueue(Address byte_addr, ReqType type,
                                               CoreId core, Cycle now,
                                               ChannelId* channel) {
  Request req;
  req.id = next_id_;
  req.type = type;
  req.line_addr = (byte_addr >> kLineShift) << kLineShift;
  req.coord = map_.map(byte_addr);
  req.core = core;
  if (!controllers_.at(req.coord.channel)->enqueue(req, now)) {
    return std::nullopt;
  }
  ++next_id_;
  if (channel != nullptr) *channel = req.coord.channel;
  return req.id;
}

void MemorySystem::tick(Cycle now) {
  // Epoch boundaries at or before `now` must snapshot the registry before
  // this cycle executes (sample at B = state strictly before B).
  if (sampler_ != nullptr) sampler_->advance_to(now);
  for (auto& ctrl : controllers_) ctrl->tick(now);
}

std::vector<Request> MemorySystem::drain_completed() {
  std::vector<Request> out;
  for_each_completed([&out](const Request& req) { out.push_back(req); });
  return out;
}

void MemorySystem::finalize(Cycle now) {
  for (auto& ctrl : controllers_) ctrl->finalize(now);
  if (sampler_ != nullptr) sampler_->close(now);
}

bool MemorySystem::idle() const {
  for (const auto& ctrl : controllers_) {
    if (!ctrl->idle()) return false;
  }
  return true;
}

}  // namespace rop::mem
