// Canned system configurations from the paper's Table III, plus the single
// authoritative scheme-name and refresh-mode parsers shared by the ropsim
// CLI and the campaign-spec loader (so names cannot drift between them).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

#include "cpu/system.h"
#include "dram/timing.h"
#include "mem/memory_system.h"
#include "rop/rop_engine.h"

namespace rop::sim {

/// Which memory system variant to run. The first three are the paper's
/// §V-A comparison set; the rest are the related-work refresh schemes
/// (§VI), the finer-granularity mode of §VII, and the refresh–access
/// parallelism competitors (DARP/SARP, Chang et al. HPCA'14; HiRA,
/// Yaglikci et al. MICRO'22), implemented here as additional baselines.
enum class MemoryMode : std::uint8_t {
  kBaseline,   // auto-refresh, refresh issued the moment it is due
  kNoRefresh,  // idealized memory without refresh (upper bound)
  kRop,        // auto-refresh + ROP engine (drain + prefetch + SRAM buffer)
  kElastic,    // Elastic Refresh (Stuecheli et al., MICRO'10)
  kPausing,    // Refresh Pausing (Nair et al., HPCA'13)
  kPerBank,    // per-bank refresh (REFpb), 8x cadence at tRFCpb per bank
  kDarp,       // DARP: out-of-order REFpb into idle-bank/write-drain windows
  kSarp,       // SARP: refresh one subarray while the rest of the bank serves
  kHira,       // HiRA-style refresh/activation overlap within a bank
};

/// Every mode, in canonical (display) order. New schemes must be added here
/// so the comparison bench, --compare, and the round-trip tests pick them
/// up automatically.
inline constexpr std::array<MemoryMode, 9> kAllMemoryModes = {
    MemoryMode::kBaseline, MemoryMode::kNoRefresh, MemoryMode::kRop,
    MemoryMode::kElastic,  MemoryMode::kPausing,   MemoryMode::kPerBank,
    MemoryMode::kDarp,     MemoryMode::kSarp,      MemoryMode::kHira,
};

/// Canonical (hyphenated, CLI-facing) name of a mode: "baseline",
/// "no-refresh", "rop", "elastic", "pausing", "per-bank", "darp", "sarp",
/// "hira".
[[nodiscard]] const char* memory_mode_name(MemoryMode mode);

/// Parse a scheme name. Accepts the canonical names plus the compact
/// aliases historically used in campaign specs ("norefresh", "perbank").
/// Returns nullopt for unknown names.
[[nodiscard]] std::optional<MemoryMode> parse_memory_mode(
    std::string_view name);

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
