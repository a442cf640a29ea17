// Last-level cache model: set-associative, write-back, write-allocate, LRU.
//
// The LLC filters core traffic before it reaches the memory system — the
// paper's §V-C3 sensitivity study sweeps its size (1/2/4/8 MB) to show how
// filtering changes refresh exposure. Timing is not modeled here (hits are
// folded into the core's compute stream); only the miss/writeback traffic
// matters to the memory system.
//
// Layout: four flat arrays (tags, recency order, dirty bits per way; fill
// count per set). Ways fill in index order and are only invalidated all at
// once (reset), so a set's valid ways are exactly [0, fill) and "first
// invalid way" is the fill count. Each set keeps a recency list of its way
// indices, MRU first: the least-recent valid way of a full set is the list's
// last entry, and the MRU probe is its first. The list is always a
// permutation of the set's ways (positions at or past the fill count hold
// their own index), so a fill of way `fill` is the same move-to-front as a
// hit.
//
// Probe: each way also keeps an 8-bit fingerprint of its tag (the tag's low
// byte), derived state that is never serialized. A probe compares the
// set's valid fingerprints against the wanted one in 16-byte (SSE2) or
// 8-byte (portable SWAR) words and checks the full tag only for the ways
// that match, so a miss reads the set's metadata and no tag but the
// victim's. Valid tags in a set are distinct, so the first full match is
// the only one: the probe finds exactly the way a tag scan would. The
// recency update is the same word-wise: a shift of the list prefix by one
// byte. The fingerprint and recency arrays carry kProbePad bytes past the
// last set so a word load never leaves them. See docs/PERFORMANCE.md §12.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace rop::cache {

struct LlcConfig {
  std::uint64_t size_bytes = 2ull << 20;  // 2 MB (single-core default)
  std::uint32_t associativity = 16;
};

struct LlcAccessResult {
  bool hit = false;
  /// Dirty victim line address evicted by this access's fill, if any.
  std::optional<Address> writeback;
};

struct LlcStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;
};

class Llc {
 public:
  explicit Llc(const LlcConfig& cfg);

  /// Access a byte address. On a miss the line is allocated immediately
  /// (hit-under-miss is implicit; the fill's DRAM latency is modeled by the
  /// memory system through the core's outstanding-miss tracking).
  LlcAccessResult access(Address addr, bool is_write);

  /// Probe without allocation or LRU update.
  [[nodiscard]] bool contains(Address addr) const;

  /// Mirror this cache's event counts into `registry` under
  /// `prefix` + {accesses,hits,misses,writebacks}. Handles are resolved
  /// here, once; access() then bumps them by pointer.
  void bind_stats(StatRegistry& registry, const std::string& prefix);

  [[nodiscard]] const LlcStats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t num_sets() const { return num_sets_; }
  [[nodiscard]] const LlcConfig& config() const { return cfg_; }

  void reset();

  /// Snapshot serialization: the four flat arrays (each one bulk copy) and
  /// the stat mirror. The recency lists ride without their probe padding,
  /// whose bytes are only ever read masked off, so the bytes match a list
  /// without padding. Config-derived geometry, the fingerprints (rebuilt
  /// from the tags on load) and the bound stat handles do not ride.
  template <class Ar>
  void io(Ar& ar) {
    order_.resize(order_.size() - kProbePad);
    ar(tags_, order_, dirty_, fill_, stats_.accesses, stats_.hits,
       stats_.misses, stats_.writebacks);
    order_.resize(order_.size() + kProbePad);
    if constexpr (Ar::kIsReader) rebuild_fingerprints();
  }

 private:
  /// Tag of an invalid way. No address maps to it: a tag is a line number
  /// shifted right, so its top bits are always clear.
  static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

  /// Bytes past the last set's fingerprints and recency list: one probe
  /// word, the most a word load can run past a set.
  static constexpr std::size_t kProbePad = 16;

  [[nodiscard]] std::uint32_t set_index(Address addr) const;
  [[nodiscard]] std::uint64_t tag_of(Address addr) const;
  static std::uint8_t fingerprint(std::uint64_t tag) {
    return static_cast<std::uint8_t>(tag);
  }
  void rebuild_fingerprints();

  struct StatHandles {
    Counter* accesses = nullptr;
    Counter* hits = nullptr;
    Counter* misses = nullptr;
    Counter* writebacks = nullptr;
  };

  LlcConfig cfg_;
  std::uint32_t num_sets_;
  std::uint32_t set_shift_;  // log2(num_sets_)
  // Per way, num_sets_ * associativity entries, row-major by set.
  std::vector<std::uint64_t> tags_;  // kInvalidTag when invalid
  std::vector<std::uint8_t> fps_;    // fingerprint(tag), + kProbePad
  std::vector<std::uint8_t> order_;  // recency list: [0] MRU .. [n-1] LRU,
                                     // + kProbePad
  std::vector<std::uint8_t> dirty_;
  // Per set: number of valid ways, which are ways [0, fill).
  std::vector<std::uint8_t> fill_;
  LlcStats stats_;
  StatHandles h_;  // null until bind_stats
};

}  // namespace rop::cache
