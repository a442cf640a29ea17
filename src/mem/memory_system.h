// Top-level memory system: address mapping + one controller per channel.
//
// This is the public substrate API the CPU layer and the examples talk to:
// enqueue line-granular requests, tick once per controller clock, drain
// completions. Every channel records into the one shared StatRegistry.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "dram/timing.h"
#include "mem/address_map.h"
#include "mem/controller.h"

namespace rop::telemetry {
class EpochSampler;
class TraceSink;
}

namespace rop::mem {

struct MemoryConfig {
  dram::DramTimings timings{};
  dram::DramOrganization org{};
  ControllerConfig ctrl{};
};

class MemorySystem {
 public:
  MemorySystem(const MemoryConfig& cfg, StatRegistry* stats);

  MemorySystem(const MemorySystem&) = delete;
  MemorySystem& operator=(const MemorySystem&) = delete;

  /// Queue-space check for the channel `byte_addr` maps to.
  [[nodiscard]] bool can_accept(Address byte_addr, ReqType type) const;

  /// Enqueue a demand access. Returns the request id on acceptance, or
  /// nullopt when the target queue is full (caller retries next cycle).
  /// When `channel` is non-null it receives the channel the address maps
  /// to (on acceptance only) — the event loop uses it to re-arm just that
  /// channel's clock.
  std::optional<RequestId> enqueue(Address byte_addr, ReqType type,
                                   CoreId core, Cycle now,
                                   ChannelId* channel = nullptr);

  /// Advance all channels one controller clock (the naive loop's step).
  void tick(Cycle now);

  /// Drain every channel: invokes `fn(const Request&)` per completed read,
  /// channels in order, requests in completion-drain order within each
  /// channel (Controller::drain_completed_into). This is the simulation
  /// loop's per-tick path.
  template <typename Fn>
  void for_each_completed(Fn&& fn) {
    for (auto& ctrl : controllers_) ctrl->drain_completed_into(fn);
  }

  /// for_each_completed, collected into a vector (any channel).
  std::vector<Request> drain_completed();

  [[nodiscard]] const AddressMap& address_map() const { return map_; }
  [[nodiscard]] const MemoryConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint32_t num_channels() const {
    return static_cast<std::uint32_t>(controllers_.size());
  }
  [[nodiscard]] Controller& controller(ChannelId ch) {
    return *controllers_.at(ch);
  }
  [[nodiscard]] const Controller& controller(ChannelId ch) const {
    return *controllers_.at(ch);
  }

  /// Attach an epoch sampler (non-owning; nullptr detaches). tick() then
  /// advances it to every executed cycle and finalize() closes it; the
  /// channel clocks of the event-driven loop advance it at every boundary
  /// they cross (see mem/channel_clocks.h).
  void set_sampler(telemetry::EpochSampler* sampler) { sampler_ = sampler; }
  [[nodiscard]] telemetry::EpochSampler* sampler() const { return sampler_; }

  /// Attach a trace sink to every controller (non-owning; nullptr detaches).
  void set_trace(telemetry::TraceSink* trace) {
    for (auto& ctrl : controllers_) ctrl->set_trace(trace);
  }

  /// Settle energy/blocking accounting at end of run.
  void finalize(Cycle now);

  /// True when every queue and in-flight buffer is empty.
  [[nodiscard]] bool idle() const;

  /// The shared registry (never null) every channel records into. The CPU
  /// layer resolves its own stat handles from it at construction.
  [[nodiscard]] StatRegistry* stats() const { return stats_; }

  /// Snapshot serialization: the request-id source and every controller.
  /// The registry is serialized separately by sim/snapshot.cpp — before
  /// this object, so handle-preserving registry restore precedes
  /// everything that might read a counter.
  template <class Ar>
  void io(Ar& ar) {
    ar(next_id_);
    for (auto& ctrl : controllers_) ar.field(*ctrl);
  }

 private:
  MemoryConfig cfg_;  // owns the timings the channels reference
  AddressMap map_;
  StatRegistry* stats_;
  std::vector<std::unique_ptr<Controller>> controllers_;
  RequestId next_id_ = 1;
  telemetry::EpochSampler* sampler_ = nullptr;
};

}  // namespace rop::mem
