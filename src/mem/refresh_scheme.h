// The refresh schemes the memory controller implements, one table row each.
//
// A scheme is named once here: its canonical name (CLI, campaign specs,
// stats keys), the compact alias older campaign specs use, the unit one
// refresh obligation retires, and the subarrays per bank its preset
// builds. What a scheme *does* lives in one decision function in
// mem/controller.cpp.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace rop::mem {

/// How the controller refreshes. The first three are the paper's §V-A
/// comparison set; the rest are the related-work schemes (§VI), the
/// finer-granularity mode of §VII, and the refresh–access parallelism
/// competitors, implemented here as additional baselines.
enum class RefreshScheme : std::uint8_t {
  /// Auto-refresh: REF goes out the moment it is due; the rank blocks
  /// immediately.
  kBaseline,
  /// Idealized memory without refresh (the upper bound of Figs 1 and 7).
  kNoRefresh,
  /// ROP (paper §IV-D): drain queued demand, seal the rank, stage the
  /// engine's prefetches, then refresh. Without an attached RopEngine it
  /// degrades to drain-then-refresh.
  kRop,
  /// Elastic Refresh (Stuecheli et al., MICRO'10): postpone a due refresh
  /// until the rank has been idle for a threshold that shrinks as the
  /// postponement backlog grows; forced at the JEDEC budget.
  kElastic,
  /// Refresh Pausing (Nair et al., HPCA'13): execute the refresh in
  /// segments; between segments, pending demand is serviced. Each resume
  /// pays a re-lock overhead; an urgent refresh finishes straight through.
  kPausing,
  /// Per-bank refresh (REFpb): one bank at a time, round-robin, tRFCpb
  /// lock per bank at 8x the cadence; other banks keep servicing demand.
  kPerBank,
  /// DARP (Chang et al., HPCA'14): out-of-order REFpb scheduled into
  /// idle-bank and write-drain windows; postponed while every
  /// un-refreshed bank has demand, forced at the JEDEC budget. A round
  /// bitmask refreshes each bank once per round.
  kDarp,
  /// SARP (same paper): REFpb targets one subarray at a time; the bank
  /// keeps serving its other subarrays during the tRFCpb lock.
  kSarp,
  /// HiRA-style overlap (Yaglikci et al., MICRO'22): like kSarp, but the
  /// subarray refresh may issue while a row is open in a *different*
  /// subarray of the same bank.
  kHira,
};

/// What one refresh obligation retires, which sets the refresh manager's
/// cadence.
enum class RefreshUnit : std::uint8_t {
  kNone,  // never refreshes
  kRank,  // REF (or one pausing obligation): one unit per tREFI
  kBank,  // REFpb: banks units per tREFI
};

struct RefreshSchemeInfo {
  RefreshScheme scheme;
  /// Canonical, hyphenated name.
  std::string_view name;
  /// Compact spelling accepted by the parser; empty when none.
  std::string_view alias;
  RefreshUnit unit;
  /// Subarrays per bank the preset builds; > 1 marks a scheme whose REFpb
  /// targets one subarray (the controller then needs a subarray-aware
  /// bank model). 8 is the mat grouping Chang et al. evaluate.
  std::uint32_t subarrays;
};

/// Every scheme in canonical (display) order, which is also enum order.
inline constexpr std::array<RefreshSchemeInfo, 9> kRefreshSchemes = {{
    {RefreshScheme::kBaseline, "baseline", "", RefreshUnit::kRank, 1},
    {RefreshScheme::kNoRefresh, "no-refresh", "norefresh", RefreshUnit::kNone,
     1},
    {RefreshScheme::kRop, "rop", "", RefreshUnit::kRank, 1},
    {RefreshScheme::kElastic, "elastic", "", RefreshUnit::kRank, 1},
    {RefreshScheme::kPausing, "pausing", "", RefreshUnit::kRank, 1},
    {RefreshScheme::kPerBank, "per-bank", "perbank", RefreshUnit::kBank, 1},
    {RefreshScheme::kDarp, "darp", "", RefreshUnit::kBank, 1},
    {RefreshScheme::kSarp, "sarp", "", RefreshUnit::kBank, 8},
    {RefreshScheme::kHira, "hira", "", RefreshUnit::kBank, 8},
}};

[[nodiscard]] constexpr const RefreshSchemeInfo& scheme_info(
    RefreshScheme scheme) {
  return kRefreshSchemes[static_cast<std::size_t>(scheme)];
}

/// A scheme by canonical name or alias; nullopt for unknown names.
[[nodiscard]] constexpr std::optional<RefreshScheme> parse_refresh_scheme(
    std::string_view name) {
  for (const RefreshSchemeInfo& row : kRefreshSchemes) {
    if (name == row.name || (!row.alias.empty() && name == row.alias)) {
      return row.scheme;
    }
  }
  return std::nullopt;
}

static_assert([] {
  for (std::size_t i = 0; i < kRefreshSchemes.size(); ++i) {
    if (static_cast<std::size_t>(kRefreshSchemes[i].scheme) != i) return false;
  }
  return true;
}(), "kRefreshSchemes rows must follow enum order");

}  // namespace rop::mem
