#include "sim/presets.h"

namespace rop::sim {

const char* refresh_mode_name(dram::RefreshMode mode) {
  switch (mode) {
    case dram::RefreshMode::k1x: return "1x";
    case dram::RefreshMode::k2x: return "2x";
    case dram::RefreshMode::k4x: return "4x";
  }
  return "?";
}

std::optional<dram::RefreshMode> parse_refresh_mode(std::string_view name) {
  if (name == "1x") return dram::RefreshMode::k1x;
  if (name == "2x") return dram::RefreshMode::k2x;
  if (name == "4x") return dram::RefreshMode::k4x;
  return std::nullopt;
}

mem::MemoryConfig make_memory_config(std::uint32_t ranks, MemoryMode mode,
                                     dram::RefreshMode refresh_mode,
                                     std::uint32_t channels) {
  mem::MemoryConfig cfg;
  cfg.timings = dram::make_ddr4_1600_timings(refresh_mode);
  cfg.org.channels = channels;
  cfg.org.ranks = ranks;
  cfg.org.banks = 8;
  cfg.org.subarrays = mem::scheme_info(mode).subarrays;
  cfg.ctrl.refresh = mode;
  return cfg;
}

cpu::SystemConfig make_system_config(std::uint64_t llc_bytes,
                                     bool rank_partition) {
  cpu::SystemConfig cfg;
  cfg.cpu_ratio = 4;  // 3.2 GHz cores / 800 MHz controller
  cfg.core.issue_width = 4;
  cfg.core.max_outstanding = 16;
  cfg.llc.size_bytes = llc_bytes;
  cfg.llc.associativity = 16;
  cfg.shared_llc = true;
  cfg.rank_partition = rank_partition;
  return cfg;
}

}  // namespace rop::sim
