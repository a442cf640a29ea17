// Address mapping tests: bijectivity, the page-interleaved layout, and the
// rank-pinned relocation.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "mem/address_map.h"

namespace rop::mem {
namespace {

dram::DramOrganization org4() {
  dram::DramOrganization org;
  org.channels = 1;
  org.ranks = 4;
  org.banks = 8;
  org.rows = 1 << 16;
  org.columns = 128;
  return org;
}

TEST(AddressMap, MapUnmapRoundTripsRandomAddresses) {
  const AddressMap map(org4());
  Rng rng(99);
  const std::uint64_t total = map.organization().total_lines();
  for (int i = 0; i < 5000; ++i) {
    const Address addr = rng.next_below(total) << kLineShift;
    const DramCoord c = map.map(addr);
    EXPECT_LT(c.rank, 4u);
    EXPECT_LT(c.bank, 8u);
    EXPECT_LT(c.row, 1u << 16);
    EXPECT_LT(c.column, 128u);
    EXPECT_EQ(map.unmap(c), addr);
  }
}

TEST(AddressMap, SubLineBitsIgnored) {
  const AddressMap map(org4());
  EXPECT_EQ(map.map(0x1000), map.map(0x1000 + 63));
}

TEST(AddressMap, BankOffsetRoundTrips) {
  const AddressMap map(org4());
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t off = rng.next_below(map.organization().lines_per_bank());
    const DramCoord c = map.coord_from_bank_offset(0, 2, 5, off);
    EXPECT_EQ(c.rank, 2u);
    EXPECT_EQ(c.bank, 5u);
    EXPECT_EQ(map.line_offset_in_bank(c), off);
  }
}

TEST(AddressMap, BankOffsetWrapsBeyondCapacity) {
  const AddressMap map(org4());
  const std::uint64_t n = map.organization().lines_per_bank();
  EXPECT_EQ(map.coord_from_bank_offset(0, 0, 0, n + 17),
            map.coord_from_bank_offset(0, 0, 0, 17));
}

TEST(AddressMap, ComposeInRankPinsRankAndIsBijective) {
  const AddressMap map(org4());
  Rng rng(3);
  std::vector<Address> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t local = rng.next_below(map.lines_per_rank());
    const Address a = map.compose_in_rank(3, local);
    EXPECT_EQ(map.map(a).rank, 3u);
  }
  // Bijective over sequential indices: distinct locals -> distinct addrs.
  std::vector<Address> addrs;
  for (std::uint64_t local = 0; local < 512; ++local) {
    addrs.push_back(map.compose_in_rank(1, local));
  }
  std::sort(addrs.begin(), addrs.end());
  EXPECT_EQ(std::adjacent_find(addrs.begin(), addrs.end()), addrs.end());
}

TEST(AddressMap, PageInterleaveKeepsRowsInOneBank) {
  const AddressMap map(org4());
  // 128 consecutive lines share bank/rank/row (one DRAM row).
  const DramCoord first = map.map(0);
  for (std::uint64_t line = 0; line < 128; ++line) {
    const DramCoord c = map.map(line << kLineShift);
    EXPECT_EQ(c.bank, first.bank);
    EXPECT_EQ(c.rank, first.rank);
    EXPECT_EQ(c.row, first.row);
    EXPECT_EQ(c.column, line);
  }
  // Line 128 moves to the next bank.
  EXPECT_NE(map.map(128ull << kLineShift).bank, first.bank);
}

TEST(AddressMap, PageInterleaveBankOffsetsAreStreamContinuous) {
  // The ROP prediction table depends on this: a unit-stride stream's
  // per-bank offsets advance by exactly +1 across successive visits.
  const AddressMap map(org4());
  std::vector<std::uint64_t> last_offset(8 * 4, 0);
  std::vector<bool> seen(8 * 4, false);
  for (std::uint64_t line = 0; line < 128 * 8 * 4 * 3; ++line) {
    const DramCoord c = map.map(line << kLineShift);
    const std::size_t key = c.rank * 8 + c.bank;
    const std::uint64_t off = map.line_offset_in_bank(c);
    if (seen[key]) {
      EXPECT_EQ(off, last_offset[key] + 1);
    }
    last_offset[key] = off;
    seen[key] = true;
  }
}

}  // namespace
}  // namespace rop::mem
