#include "cache/llc.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace rop::cache {

namespace {

bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

// Word-parallel byte primitives over the per-set byte arrays. A word holds
// kLanes bytes; lane i is byte i. Both lane-match masks carry kLaneBits
// bits per lane, the lowest-indexed lane in the lowest bits. SSE2 probes
// 16 ways per compare; the portable SWAR words hold 8 and cost ~12% more
// wall time on the 3B-instruction sampled lbm run (docs/PERFORMANCE.md
// §12), so both are kept. CI builds and tests the SWAR path with
// -U__SSE2__.
#if defined(__SSE2__)
constexpr std::uint32_t kLanes = 16;
constexpr std::uint32_t kLaneBits = 1;
using LaneMask = std::uint32_t;

/// Lanes of the word at `p` equal to `value`.
LaneMask match_lanes(const std::uint8_t* p, std::uint8_t value) {
  const __m128i word = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  return static_cast<LaneMask>(_mm_movemask_epi8(
      _mm_cmpeq_epi8(word, _mm_set1_epi8(static_cast<char>(value)))));
}

/// The word at `p` with lanes [0, last] shifted up one lane and `carry`
/// entering lane 0; lanes past `last` keep their bytes. Returns the byte
/// shifted out of lane kLanes - 1 (only meaningful when last >= kLanes - 1).
std::uint8_t shift_lanes(std::uint8_t* p, std::uint32_t last,
                         std::uint8_t carry) {
  const __m128i word = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i shifted =
      _mm_or_si128(_mm_slli_si128(word, 1), _mm_cvtsi32_si128(carry));
  const __m128i keep = _mm_cmpgt_epi8(
      _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm_set1_epi8(static_cast<char>(std::min(last, kLanes - 1))));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p),
                   _mm_or_si128(_mm_andnot_si128(keep, shifted),
                                _mm_and_si128(keep, word)));
  return static_cast<std::uint8_t>(_mm_extract_epi16(word, 7) >> 8);
}
#else
constexpr std::uint32_t kLanes = 8;
constexpr std::uint32_t kLaneBits = 8;
using LaneMask = std::uint64_t;
constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7full;

/// The 8 bytes at `p` as a word with byte i in bits [8i, 8i + 8).
std::uint64_t load_word(const std::uint8_t* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof w);
  return std::endian::native == std::endian::little ? w : __builtin_bswap64(w);
}

void store_word(std::uint8_t* p, std::uint64_t w) {
  if constexpr (std::endian::native != std::endian::little) {
    w = __builtin_bswap64(w);
  }
  std::memcpy(p, &w, sizeof w);
}

/// Lanes of the word at `p` equal to `value`: the top bit of each lane
/// whose byte XORs to zero. Exact per lane (no carries cross lanes).
LaneMask match_lanes(const std::uint8_t* p, std::uint8_t value) {
  const std::uint64_t x = load_word(p) ^ (0x0101010101010101ull * value);
  return ~(((x & kLow7) + kLow7) | x | kLow7);
}

std::uint8_t shift_lanes(std::uint8_t* p, std::uint32_t last,
                         std::uint8_t carry) {
  const std::uint64_t word = load_word(p);
  const std::uint64_t shifted = (word << 8) | carry;
  const std::uint64_t keep =
      last >= kLanes - 1 ? 0 : ~std::uint64_t{0} << (8 * (last + 1));
  store_word(p, (shifted & ~keep) | (word & keep));
  return static_cast<std::uint8_t>(word >> 56);
}
#endif

/// `mask` restricted to lanes below `n` (n >= 1).
LaneMask lanes_below(LaneMask mask, std::uint32_t n) {
  return n < kLanes ? mask & ((LaneMask{1} << (n * kLaneBits)) - 1) : mask;
}

std::uint32_t lowest_lane(LaneMask mask) {
  return static_cast<std::uint32_t>(std::countr_zero(mask)) / kLaneBits;
}

/// The way among [0, fill) holding `tag`, or `fill` when none does: the
/// fingerprint-matching ways, lowest first, have their full tag checked.
std::uint32_t find_way(const std::uint8_t* fps, const std::uint64_t* tags,
                       std::uint32_t fill, std::uint64_t tag,
                       std::uint8_t fp) {
  for (std::uint32_t base = 0; base < fill; base += kLanes) {
    LaneMask m = lanes_below(match_lanes(fps + base, fp), fill - base);
    while (m != 0) {
      const std::uint32_t way = base + lowest_lane(m);
      if (tags[way] == tag) return way;
      m &= m - 1;
    }
  }
  return fill;
}

/// Position of `way` in a recency list whose first `fill` entries hold it.
std::uint32_t position_of(const std::uint8_t* order, std::uint32_t fill,
                          std::uint8_t way) {
  for (std::uint32_t base = 0;; base += kLanes) {
    const LaneMask m =
        lanes_below(match_lanes(order + base, way), fill - base);
    if (m != 0) return base + lowest_lane(m);
  }
}

/// Move `way`, found at position `pos` of a recency list, to the front:
/// one word shift per kLanes positions.
void move_to_front(std::uint8_t* order, std::uint32_t pos, std::uint8_t way) {
  std::uint8_t carry = way;
  for (std::uint32_t base = 0; base <= pos; base += kLanes) {
    carry = shift_lanes(order + base, pos - base, carry);
  }
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
  reset();
}

std::uint32_t Llc::set_index(Address addr) const {
  return static_cast<std::uint32_t>((addr >> kLineShift) & (num_sets_ - 1));
}

std::uint64_t Llc::tag_of(Address addr) const {
  return (addr >> kLineShift) >> set_shift_;
}

bool Llc::contains(Address addr) const {
  const std::uint32_t set = set_index(addr);
  const std::size_t base = static_cast<std::size_t>(set) * cfg_.associativity;
  const std::uint64_t tag = tag_of(addr);
  const std::uint32_t fill = fill_[set];
  return find_way(&fps_[base], &tags_[base], fill, tag, fingerprint(tag)) <
         fill;
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
  const std::uint8_t fp = fingerprint(tag);
  const std::uint32_t assoc = cfg_.associativity;
  const std::size_t base = static_cast<std::size_t>(set) * assoc;
  std::uint64_t* tags = &tags_[base];
  std::uint8_t* fps = &fps_[base];
  std::uint8_t* order = &order_[base];
  std::uint8_t* dirty = &dirty_[base];

  // MRU fast path: repeated touches to the hottest line in a set resolve
  // with one fingerprint and one tag compare and leave the recency list as
  // it is. An empty set's list head is an invalid way, which never matches;
  // a miss reads the tag only on a fingerprint collision.
  const std::uint8_t mru = order[0];
  if (fps[mru] == fp && tags[mru] == tag) {
    ++stats_.hits;
    if (h_.hits != nullptr) h_.hits->inc();
    if (is_write) dirty[mru] = 1;
    return LlcAccessResult{true, std::nullopt};
  }

  // Probe the valid ways, then find the hit way's recency position (a hit
  // on a non-MRU way is the rare case).
  const std::uint32_t fill = fill_[set];
  const std::uint32_t hit = find_way(fps, tags, fill, tag, fp);
  if (hit < fill) {
    ++stats_.hits;
    if (h_.hits != nullptr) h_.hits->inc();
    const auto way = static_cast<std::uint8_t>(hit);
    if (is_write) dirty[way] = 1;
    move_to_front(order, position_of(order, fill, way), way);
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
  fps[victim] = fp;
  dirty[victim] = static_cast<std::uint8_t>(is_write);
  move_to_front(order, pos, victim);
  return result;
}

void Llc::reset() {
  // Sizes the arrays on the first call (from the constructor) and refills
  // them in place after that: one pass over each.
  const std::size_t ways =
      static_cast<std::size_t>(num_sets_) * cfg_.associativity;
  tags_.assign(ways, kInvalidTag);
  fps_.assign(ways + kProbePad, fingerprint(kInvalidTag));
  dirty_.assign(ways, 0);
  fill_.assign(num_sets_, 0);
  order_.resize(ways + kProbePad);
  const auto assoc = static_cast<std::ptrdiff_t>(cfg_.associativity);
  const auto lists_end = order_.end() - static_cast<std::ptrdiff_t>(kProbePad);
  for (auto it = order_.begin(); it != lists_end; it += assoc) {
    std::iota(it, it + assoc, std::uint8_t{0});
  }
  stats_ = LlcStats{};
}

void Llc::rebuild_fingerprints() {
  // Sized from the tags so a malformed load cannot index past them.
  fps_.assign(tags_.size() + kProbePad, 0);
  std::transform(tags_.begin(), tags_.end(), fps_.begin(), fingerprint);
}

}  // namespace rop::cache
