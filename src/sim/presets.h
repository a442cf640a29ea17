// Canned system configurations from the paper's Table III, plus the single
// authoritative scheme-name and refresh-mode parsers shared by the ropsim
// CLI and the campaign-spec loader (so names cannot drift between them).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "cpu/system.h"
#include "dram/timing.h"
#include "mem/memory_system.h"
#include "mem/refresh_scheme.h"
#include "rop/rop_engine.h"

namespace rop::sim {

/// Which memory system variant to run: the controller's refresh scheme
/// (mem/refresh_scheme.h holds the one table of names and properties).
using MemoryMode = mem::RefreshScheme;

/// Every mode, in canonical (display) order: the scheme table's rows, so
/// the comparison bench, --compare, and the round-trip tests pick a new
/// scheme up automatically.
inline constexpr std::array<MemoryMode, mem::kRefreshSchemes.size()>
    kAllMemoryModes = [] {
      std::array<MemoryMode, mem::kRefreshSchemes.size()> modes{};
      for (std::size_t i = 0; i < modes.size(); ++i) {
        modes[i] = mem::kRefreshSchemes[i].scheme;
      }
      return modes;
    }();

/// Canonical (hyphenated, CLI-facing) name of a mode.
[[nodiscard]] inline const char* memory_mode_name(MemoryMode mode) {
  return mem::scheme_info(mode).name.data();
}

/// Parse a scheme name: a canonical name or an alias ("norefresh",
/// "perbank"). Returns nullopt for unknown names.
[[nodiscard]] inline std::optional<MemoryMode> parse_memory_mode(
    std::string_view name) {
  return mem::parse_refresh_scheme(name);
}

/// Canonical name of a fine-grained refresh mode: "1x" / "2x" / "4x".
[[nodiscard]] const char* refresh_mode_name(dram::RefreshMode mode);

/// Parse a refresh-mode name ("1x" | "2x" | "4x"); nullopt otherwise.
[[nodiscard]] std::optional<dram::RefreshMode> parse_refresh_mode(
    std::string_view name);

/// DDR4-1600, `channels` channels of `ranks` ranks of 8 banks (Table III
/// is the 1-channel point; multi-channel extends it for the campaign
/// sweeps).
[[nodiscard]] mem::MemoryConfig make_memory_config(
    std::uint32_t ranks, MemoryMode mode,
    dram::RefreshMode refresh_mode = dram::RefreshMode::k1x,
    std::uint32_t channels = 1);

/// Out-of-order-approximation cores at 4x the controller clock with an LLC
/// of `llc_bytes` (2 MB single-core / 4 MB 4-core in the paper).
[[nodiscard]] cpu::SystemConfig make_system_config(std::uint64_t llc_bytes,
                                                   bool rank_partition);

}  // namespace rop::sim
