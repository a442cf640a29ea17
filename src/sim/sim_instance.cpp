#include "sim/sim_instance.h"

#include <stdexcept>

#include "sim/presets.h"
#include "workload/spec_profiles.h"

namespace rop::sim {

SimInstance build_sim_instance(const ExperimentSpec& spec,
                               StatRegistry* external_stats,
                               const SimInstanceHooks& hooks) {
  ROP_ASSERT(!spec.benchmarks.empty());

  SimInstance inst;
  std::vector<std::vector<workload::TraceRecord>> recorded;
  for (const std::string& path : spec.trace_files) {
    try {
      recorded.push_back(workload::read_trace_file(path));
    } catch (const std::runtime_error& e) {
      inst.error = e.what();
      return inst;
    }
  }
  if (external_stats != nullptr) {
    inst.registry = external_stats;
  } else {
    inst.owned_stats = std::make_unique<StatRegistry>();
    inst.registry = inst.owned_stats.get();
  }

  const mem::MemoryConfig mem_cfg = make_memory_config(
      spec.ranks, spec.mode, spec.refresh_mode, spec.channels);
  inst.memory = std::make_unique<mem::MemorySystem>(mem_cfg, inst.registry);

  if (hooks.post_memory) hooks.post_memory(*inst.memory);

  // ROP engines attach one per channel and live for the whole run, all
  // recording into the shared registry.
  if (spec.mode == MemoryMode::kRop) {
    for (ChannelId ch = 0; ch < inst.memory->num_channels(); ++ch) {
      engine::RopConfig rop_cfg = spec.rop;
      rop_cfg.seed ^= spec.seed_salt * 0x9e3779b97f4a7c15ULL + ch;
      inst.engines.push_back(std::make_unique<engine::RopEngine>(
          rop_cfg, inst.memory->controller(ch), inst.memory->address_map(),
          inst.registry));
    }
  }

  if (hooks.post_engines) hooks.post_engines(inst.engines);

  std::vector<workload::TraceSource*> trace_ptrs;
  for (std::size_t c = 0; c < spec.benchmarks.size(); ++c) {
    if (!recorded.empty()) {
      inst.replays.push_back(
          std::make_unique<workload::MemoryTrace>(std::move(recorded[c])));
      trace_ptrs.push_back(inst.replays.back().get());
    } else {
      inst.traces.push_back(std::make_unique<workload::SyntheticTrace>(
          workload::spec_profile(spec.benchmarks[c], spec.seed_salt + c)));
      trace_ptrs.push_back(inst.traces.back().get());
    }
  }

  cpu::SystemConfig sys_cfg =
      make_system_config(spec.llc_bytes, spec.rank_partition);
  sys_cfg.loop = spec.loop;
  inst.cpu_ratio = sys_cfg.cpu_ratio;
  inst.system =
      std::make_unique<cpu::System>(sys_cfg, *inst.memory, trace_ptrs);
  return inst;
}

}  // namespace rop::sim
