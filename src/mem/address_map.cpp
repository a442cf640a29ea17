#include "mem/address_map.h"

namespace rop::mem {

namespace {

/// Extract `count` values' worth of modulus from `v`, returning the digit
/// and advancing `v`.
std::uint64_t take(std::uint64_t& v, std::uint64_t count) {
  const std::uint64_t digit = v % count;
  v /= count;
  return digit;
}

}  // namespace

AddressMap::AddressMap(const dram::DramOrganization& org) : org_(org) {
  ROP_ASSERT(org.channels > 0 && org.ranks > 0 && org.banks > 0);
  ROP_ASSERT(org.rows > 0 && org.columns > 0);
}

DramCoord AddressMap::map(Address byte_addr) const {
  std::uint64_t line = byte_addr >> kLineShift;
  DramCoord c;
  c.channel = static_cast<ChannelId>(take(line, org_.channels));
  c.column = static_cast<ColumnId>(take(line, org_.columns));
  c.bank = static_cast<BankId>(take(line, org_.banks));
  c.rank = static_cast<RankId>(take(line, org_.ranks));
  c.row = static_cast<RowId>(line % org_.rows);
  return c;
}

Address AddressMap::unmap(const DramCoord& coord) const {
  std::uint64_t line = coord.row;
  line = line * org_.ranks + coord.rank;
  line = line * org_.banks + coord.bank;
  line = line * org_.columns + coord.column;
  line = line * org_.channels + coord.channel;
  return line << kLineShift;
}

std::uint64_t AddressMap::line_offset_in_bank(const DramCoord& coord) const {
  return static_cast<std::uint64_t>(coord.row) * org_.columns + coord.column;
}

DramCoord AddressMap::coord_from_bank_offset(ChannelId channel, RankId rank,
                                             BankId bank,
                                             std::uint64_t offset) const {
  const std::uint64_t wrapped = offset % org_.lines_per_bank();
  DramCoord c;
  c.channel = channel;
  c.rank = rank;
  c.bank = bank;
  c.row = static_cast<RowId>(wrapped / org_.columns);
  c.column = static_cast<ColumnId>(wrapped % org_.columns);
  return c;
}

Address AddressMap::compose_in_rank(RankId rank,
                                    std::uint64_t local_line) const {
  std::uint64_t v = local_line % lines_per_rank();
  DramCoord c;
  c.rank = rank;
  c.channel = static_cast<ChannelId>(take(v, org_.channels));
  // The flat layout's bank/column digit order, so rank-partitioned traffic
  // keeps the same interleaving behaviour.
  c.column = static_cast<ColumnId>(take(v, org_.columns));
  c.bank = static_cast<BankId>(take(v, org_.banks));
  c.row = static_cast<RowId>(v % org_.rows);
  return unmap(c);
}

}  // namespace rop::mem
