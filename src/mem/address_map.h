// Physical-address interleaving.
//
// The mapper translates line-granular physical addresses to DRAM coordinates
// and back with one page-interleaved layout, [row | rank | bank | column |
// channel] from the top bit down: consecutive lines fill a row inside one
// bank before moving to the next bank (bank locality per [22]). A
// unit-stride stream then advances each bank's line offset by exactly one
// per visit, the small-delta trail the ROP prediction table learns from.
//
// Rank-aware mapping (paper §IV-A "Rank-aware Mapping") takes the rank not
// from address bits but from a per-core home rank (core % ranks); see
// compose_in_rank and cpu::System::relocate.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "dram/timing.h"

namespace rop::mem {

class AddressMap {
 public:
  explicit AddressMap(const dram::DramOrganization& org);

  /// Decompose a byte address (any alignment; low 6 bits ignored).
  [[nodiscard]] DramCoord map(Address byte_addr) const;

  /// Rebuild the line-granular byte address from a coordinate.
  [[nodiscard]] Address unmap(const DramCoord& coord) const;

  /// Linear cache-line offset of `coord` within its bank — the LastAddr
  /// representation used by the ROP prediction table.
  [[nodiscard]] std::uint64_t line_offset_in_bank(const DramCoord& coord) const;

  /// Inverse of line_offset_in_bank for a fixed channel/rank/bank. Offsets
  /// beyond the bank wrap around (prefetch address generation may step past
  /// the last row).
  [[nodiscard]] DramCoord coord_from_bank_offset(ChannelId channel, RankId rank,
                                                 BankId bank,
                                                 std::uint64_t offset) const;

  /// Rank-partitioned relocation: spread a rank-local line index over
  /// channel/column/bank/row while pinning the rank — the physical address
  /// layout used when rank partitioning confines a core to its home rank.
  /// Bijective over one rank's capacity; indices beyond it wrap.
  [[nodiscard]] Address compose_in_rank(RankId rank,
                                        std::uint64_t local_line) const;

  /// Cache lines addressable within one rank (wrap bound for the above).
  [[nodiscard]] std::uint64_t lines_per_rank() const {
    return static_cast<std::uint64_t>(org_.channels) * org_.banks *
           org_.lines_per_bank();
  }

  [[nodiscard]] const dram::DramOrganization& organization() const {
    return org_;
  }

 private:
  dram::DramOrganization org_;
};

}  // namespace rop::mem
