// Typed DRAM commands as issued on the command bus.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/types.h"

namespace rop::dram {

enum class CmdType : std::uint8_t {
  kActivate,
  kPrecharge,
  kRead,
  kWrite,
  kRefresh,
  kRefreshBank,  // per-bank refresh (REFpb): locks one bank for tRFCpb
};

[[nodiscard]] constexpr std::string_view to_string(CmdType t) {
  switch (t) {
    case CmdType::kActivate: return "ACT";
    case CmdType::kPrecharge: return "PRE";
    case CmdType::kRead: return "RD";
    case CmdType::kWrite: return "WR";
    case CmdType::kRefresh: return "REF";
    case CmdType::kRefreshBank: return "REFpb";
  }
  return "???";
}

/// A command addressed at a DRAM coordinate. Refresh targets a whole rank
/// (bank/row/column ignored); precharge targets a bank; activate targets a
/// bank+row; column commands target bank+row+column.
struct Command {
  CmdType type = CmdType::kActivate;
  DramCoord coord{};
  RequestId request = 0;  // 0 when not tied to a transaction (PRE/REF)

  bool operator==(const Command&) const = default;

  [[nodiscard]] bool is_column() const {
    return type == CmdType::kRead || type == CmdType::kWrite;
  }
};

}  // namespace rop::dram
