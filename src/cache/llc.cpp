#include "cache/llc.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

namespace rop::cache {

namespace {

bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Move `way`, found at position `pos` of a recency list, to the front.
void move_to_front(std::uint8_t* order, std::uint32_t pos, std::uint8_t way) {
  std::memmove(order + 1, order, pos);
  order[0] = way;
}

}  // namespace

Llc::Llc(const LlcConfig& cfg) : cfg_(cfg) {
  ROP_ASSERT(cfg.associativity > 0);
  // Way indices and fill counts are stored as u8.
  ROP_ASSERT(cfg.associativity <= 255);
  ROP_ASSERT(cfg.size_bytes % (static_cast<std::uint64_t>(cfg.associativity) *
                               kLineBytes) ==
             0);
  const std::uint64_t sets =
      cfg.size_bytes / (static_cast<std::uint64_t>(cfg.associativity) *
                        kLineBytes);
  ROP_ASSERT(is_pow2(sets));
  num_sets_ = static_cast<std::uint32_t>(sets);
  set_shift_ = static_cast<std::uint32_t>(std::countr_zero(sets));
  const std::size_t ways = static_cast<std::size_t>(num_sets_) *
                           cfg.associativity;
  tags_.resize(ways);
  order_.resize(ways);
  dirty_.resize(ways);
  fill_.resize(num_sets_);
  reset();
}

std::uint32_t Llc::set_index(Address addr) const {
  return static_cast<std::uint32_t>((addr >> kLineShift) & (num_sets_ - 1));
}

std::uint64_t Llc::tag_of(Address addr) const {
  return (addr >> kLineShift) >> set_shift_;
}

bool Llc::contains(Address addr) const {
  const std::uint64_t tag = tag_of(addr);
  const std::uint64_t* tags =
      &tags_[static_cast<std::size_t>(set_index(addr)) * cfg_.associativity];
  return std::find(tags, tags + cfg_.associativity, tag) !=
         tags + cfg_.associativity;
}

void Llc::bind_stats(StatRegistry& registry, const std::string& prefix) {
  h_.accesses = registry.counter_handle(prefix + "accesses");
  h_.hits = registry.counter_handle(prefix + "hits");
  h_.misses = registry.counter_handle(prefix + "misses");
  h_.writebacks = registry.counter_handle(prefix + "writebacks");
}

LlcAccessResult Llc::access(Address addr, bool is_write) {
  ++stats_.accesses;
  if (h_.accesses != nullptr) h_.accesses->inc();
  const std::uint32_t set = set_index(addr);
  const std::uint64_t tag = tag_of(addr);
  const std::uint32_t assoc = cfg_.associativity;
  const std::size_t base = static_cast<std::size_t>(set) * assoc;
  std::uint64_t* tags = &tags_[base];
  std::uint8_t* order = &order_[base];
  std::uint8_t* dirty = &dirty_[base];

  // MRU fast path: repeated touches to the hottest line in a set resolve
  // with a single tag compare and leave the recency list as it is. An
  // empty set's list head points at an invalid way, which never matches.
  if (tags[order[0]] == tag) {
    ++stats_.hits;
    if (h_.hits != nullptr) h_.hits->inc();
    if (is_write) dirty[order[0]] = 1;
    return LlcAccessResult{true, std::nullopt};
  }

  // Tag scan over the valid ways, then the way's position in the recency
  // list (a hit on a non-MRU way is the rare case).
  const std::uint32_t fill = fill_[set];
  const std::uint64_t* hit = std::find(tags, tags + fill, tag);
  if (hit != tags + fill) {
    ++stats_.hits;
    if (h_.hits != nullptr) h_.hits->inc();
    const auto way = static_cast<std::uint8_t>(hit - tags);
    if (is_write) dirty[way] = 1;
    const auto pos = static_cast<std::uint32_t>(
        std::find(order, order + fill, way) - order);
    move_to_front(order, pos, way);
    return LlcAccessResult{true, std::nullopt};
  }

  ++stats_.misses;
  if (h_.misses != nullptr) h_.misses->inc();
  LlcAccessResult result{false, std::nullopt};
  std::uint32_t pos = fill;  // an unfilled way sits at its own position
  if (fill < assoc) {
    fill_[set] = static_cast<std::uint8_t>(fill + 1);
  } else {
    pos = assoc - 1;  // the least-recent way
  }
  const std::uint8_t victim = order[pos];
  if (dirty[victim] != 0) {  // invalid ways are always clean
    ++stats_.writebacks;
    if (h_.writebacks != nullptr) h_.writebacks->inc();
    result.writeback = ((tags[victim] << set_shift_) | set) << kLineShift;
  }
  tags[victim] = tag;
  dirty[victim] = static_cast<std::uint8_t>(is_write);
  move_to_front(order, pos, victim);
  return result;
}

void Llc::reset() {
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{0});
  std::fill(fill_.begin(), fill_.end(), std::uint8_t{0});
  const auto assoc = static_cast<std::ptrdiff_t>(cfg_.associativity);
  for (auto it = order_.begin(); it != order_.end(); it += assoc) {
    std::iota(it, it + assoc, std::uint8_t{0});
  }
  stats_ = LlcStats{};
}

}  // namespace rop::cache
