// LLC tests: hits/misses, LRU, write-back behaviour, against a reference
// model for randomized sequences (partially filled sets, reset and a
// snapshot round trip mid-stream, associativity up to the 255-way limit,
// tags that collide in the probe's fingerprint).
#include <gtest/gtest.h>

#include <algorithm>
#include <list>

#include "cache/llc.h"
#include "common/rng.h"
#include "common/snapshot_io.h"

namespace rop::cache {
namespace {

LlcConfig tiny(std::uint32_t assoc = 2, std::uint64_t sets = 4) {
  LlcConfig cfg;
  cfg.associativity = assoc;
  cfg.size_bytes = static_cast<std::uint64_t>(assoc) * sets * kLineBytes;
  return cfg;
}

TEST(Llc, ColdMissThenHit) {
  Llc llc(tiny());
  EXPECT_FALSE(llc.access(0x1000, false).hit);
  EXPECT_TRUE(llc.access(0x1000, false).hit);
  EXPECT_TRUE(llc.access(0x1000 + 63, false).hit);  // same line
  EXPECT_EQ(llc.stats().hits, 2u);
  EXPECT_EQ(llc.stats().misses, 1u);
}

TEST(Llc, LruEvictionOrder) {
  Llc llc(tiny(2, 4));  // 2-way, 4 sets: set stride is 4 lines
  const Address a = 0;                       // set 0
  const Address b = 4 * kLineBytes;          // set 0
  const Address c = 8 * kLineBytes;          // set 0
  llc.access(a, false);
  llc.access(b, false);
  llc.access(a, false);      // a is MRU
  llc.access(c, false);      // evicts b (LRU)
  EXPECT_TRUE(llc.contains(a));
  EXPECT_FALSE(llc.contains(b));
  EXPECT_TRUE(llc.contains(c));
}

TEST(Llc, CleanEvictionProducesNoWriteback) {
  Llc llc(tiny(1, 1));
  llc.access(0x0, false);
  const auto res = llc.access(0x40, false);
  EXPECT_FALSE(res.hit);
  EXPECT_FALSE(res.writeback.has_value());
  EXPECT_EQ(llc.stats().writebacks, 0u);
}

TEST(Llc, DirtyEvictionReturnsVictimAddress) {
  Llc llc(tiny(1, 2));  // direct-mapped, 2 sets
  llc.access(0x0, true);               // set 0, dirty
  const auto res = llc.access(0x80, false);  // set 0 again (stride 2 lines)
  EXPECT_FALSE(res.hit);
  ASSERT_TRUE(res.writeback.has_value());
  EXPECT_EQ(*res.writeback, 0x0u);
  EXPECT_EQ(llc.stats().writebacks, 1u);
}

TEST(Llc, WriteHitMarksDirtyWithoutWriteback) {
  Llc llc(tiny(1, 2));
  llc.access(0x0, false);
  llc.access(0x0, true);  // hit, now dirty
  const auto res = llc.access(0x80, false);
  ASSERT_TRUE(res.writeback.has_value());
  EXPECT_EQ(*res.writeback, 0x0u);
}

TEST(Llc, ResetClearsContents) {
  Llc llc(tiny());
  llc.access(0x0, true);
  llc.reset();
  EXPECT_FALSE(llc.contains(0x0));
  EXPECT_EQ(llc.stats().accesses, 0u);
}

/// Reference model: per-set list of {tag, dirty}, front = LRU. Shares
/// nothing with the Llc's layout.
class ReferenceCache {
 public:
  ReferenceCache(std::uint32_t assoc, std::uint32_t sets)
      : assoc_(assoc), sets_(sets), data_(sets) {}

  LlcAccessResult access(Address addr, bool is_write) {
    const std::uint64_t line = addr >> kLineShift;
    const std::uint32_t set = static_cast<std::uint32_t>(line % sets_);
    const std::uint64_t tag = line / sets_;
    auto& ways = data_[set];
    for (auto it = ways.begin(); it != ways.end(); ++it) {
      if (it->tag == tag) {
        auto entry = *it;
        entry.dirty |= is_write;
        ways.erase(it);
        ways.push_back(entry);
        return {true, std::nullopt};
      }
    }
    LlcAccessResult res{false, std::nullopt};
    if (ways.size() >= assoc_) {
      if (ways.front().dirty) {
        res.writeback = (ways.front().tag * sets_ + set) << kLineShift;
      }
      ways.pop_front();
    }
    ways.push_back({tag, is_write});
    return res;
  }

  [[nodiscard]] bool contains(Address addr) const {
    const std::uint64_t line = addr >> kLineShift;
    const auto& ways = data_[static_cast<std::size_t>(line % sets_)];
    return std::any_of(ways.begin(), ways.end(), [&](const Entry& e) {
      return e.tag == line / sets_;
    });
  }

  void reset() {
    for (auto& ways : data_) ways.clear();
  }

 private:
  struct Entry {
    std::uint64_t tag;
    bool dirty;
  };
  std::uint32_t assoc_;
  std::uint32_t sets_;
  std::vector<std::list<Entry>> data_;
};

struct LlcSweepParams {
  std::uint32_t assoc;
  std::uint32_t sets;
  double write_fraction;
};

/// Sweep traffic: the lower half of the sets sees 4x its ways in distinct
/// lines (evictions), the upper half at most half its ways, so those sets
/// stay partially filled for the whole stream.
Address sweep_address(Rng& rng, const LlcSweepParams& p) {
  const std::uint64_t set = rng.next_below(p.sets);
  const std::uint64_t tags =
      set < p.sets / 2 ? 4ull * p.assoc : std::max(1u, p.assoc / 2);
  const std::uint64_t line = rng.next_below(tags) * p.sets + set;
  return (line << kLineShift) | rng.next_below(kLineBytes);
}

/// Drive an Llc and the reference model with the same `kAccesses` accesses
/// from `next_address` and compare per access: hit, writeback and
/// contains() (on the line just touched and on an untouched probe). A third
/// of the way in, the cache moves through a snapshot archive into a fresh
/// Llc (fingerprints rebuilt from the tags); two thirds in, both sides
/// reset. Stats since the reset match at the end.
template <class NextAddress>
void check_against_reference(std::uint32_t assoc, std::uint32_t sets,
                             double write_fraction, std::uint64_t seed,
                             const NextAddress& next_address) {
  const LlcConfig cfg = tiny(assoc, sets);
  Llc llc(cfg);
  ReferenceCache ref(assoc, sets);
  Rng rng(seed);
  constexpr int kAccesses = 20000;
  LlcStats want_stats;
  for (int i = 0; i < kAccesses; ++i) {
    if (i == kAccesses / 3) {
      snap::Writer w;
      w.field(llc);
      Llc fresh(cfg);
      snap::Reader r(w.buffer());
      r.field(fresh);
      ASSERT_TRUE(r.ok());
      ASSERT_TRUE(r.at_end());
      llc = std::move(fresh);
    }
    if (i == 2 * kAccesses / 3) {
      llc.reset();
      ref.reset();
      want_stats = LlcStats{};
    }
    const Address addr = next_address(rng);
    const bool is_write = rng.next_bool(write_fraction);
    const auto got = llc.access(addr, is_write);
    const auto want = ref.access(addr, is_write);
    ASSERT_EQ(got.hit, want.hit) << "iteration " << i;
    ASSERT_EQ(got.writeback, want.writeback) << "iteration " << i;
    ++want_stats.accesses;
    ++(want.hit ? want_stats.hits : want_stats.misses);
    want_stats.writebacks += want.writeback.has_value() ? 1 : 0;
    ASSERT_TRUE(llc.contains(addr)) << "iteration " << i;
    const Address probe = next_address(rng);
    ASSERT_EQ(llc.contains(probe), ref.contains(probe)) << "iteration " << i;
  }
  EXPECT_EQ(llc.stats().accesses, want_stats.accesses);
  EXPECT_EQ(llc.stats().hits, want_stats.hits);
  EXPECT_EQ(llc.stats().misses, want_stats.misses);
  EXPECT_EQ(llc.stats().writebacks, want_stats.writebacks);
}

class LlcPropertyTest : public ::testing::TestWithParam<LlcSweepParams> {};

TEST_P(LlcPropertyTest, MatchesReferenceModelOnRandomTraffic) {
  const auto p = GetParam();
  check_against_reference(p.assoc, p.sets, p.write_fraction,
                          p.assoc * 1000 + p.sets,
                          [&p](Rng& rng) { return sweep_address(rng, p); });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LlcPropertyTest,
    ::testing::Values(LlcSweepParams{1, 8, 0.3}, LlcSweepParams{2, 4, 0.3},
                      LlcSweepParams{4, 16, 0.5}, LlcSweepParams{8, 64, 0.2},
                      LlcSweepParams{16, 128, 0.4},
                      LlcSweepParams{32, 16, 0.3},
                      LlcSweepParams{255, 4, 0.4}, LlcSweepParams{3, 32, 0.3},
                      LlcSweepParams{17, 16, 0.4}));

class LlcFingerprintCollisionTest
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LlcFingerprintCollisionTest, MatchesReferenceModel) {
  // Every tag's low byte (the probe's fingerprint) is 0x00 or 0xff, so a
  // set holds many ways with the wanted fingerprint and the probe must pick
  // the one whose full tag matches. 0xff is also the fingerprint of an
  // invalid way's tag. Sets in the lower half see 4x their ways in distinct
  // tags, the upper half at most half their ways.
  const std::uint32_t assoc = GetParam();
  constexpr std::uint32_t kSets = 8;
  check_against_reference(
      assoc, kSets, 0.4, 7000 + assoc, [assoc](Rng& rng) {
        const std::uint64_t set = rng.next_below(kSets);
        const std::uint64_t tags =
            set < kSets / 2 ? 2ull * assoc : std::max(1u, assoc / 4);
        const std::uint64_t tag =
            (rng.next_below(tags) << 8) | (rng.next_bool(0.5) ? 0xff : 0x00);
        return ((tag * kSets + set) << kLineShift) |
               rng.next_below(kLineBytes);
      });
}

INSTANTIATE_TEST_SUITE_P(Sweep, LlcFingerprintCollisionTest,
                         ::testing::Values(1u, 3u, 16u, 17u, 255u));

TEST(Llc, MruFastPathStatsUnchangedOnReplayTrace) {
  // Replay a locality-heavy trace (60% repeat-last-line, the traffic the
  // MRU probe accelerates) against the reference model, which has no MRU
  // fast path: per-access results and the aggregate hit/miss/writeback
  // stats must be unchanged by the fast path.
  Llc llc(tiny(16, 64));
  ReferenceCache ref(16, 64);
  Rng rng(99);
  Address last = 0;
  std::uint64_t hits = 0, misses = 0, writebacks = 0;
  constexpr int kAccesses = 50'000;
  for (int i = 0; i < kAccesses; ++i) {
    const Address addr = (i > 0 && rng.next_bool(0.6))
                             ? last
                             : rng.next_below(16 * 64 * 4) << kLineShift;
    last = addr;
    const bool is_write = rng.next_bool(0.3);
    const auto got = llc.access(addr, is_write);
    const auto want = ref.access(addr, is_write);
    ASSERT_EQ(got.hit, want.hit) << "iteration " << i;
    ASSERT_EQ(got.writeback, want.writeback) << "iteration " << i;
    hits += want.hit ? 1 : 0;
    misses += want.hit ? 0 : 1;
    writebacks += want.writeback.has_value() ? 1 : 0;
  }
  EXPECT_EQ(llc.stats().accesses, static_cast<std::uint64_t>(kAccesses));
  EXPECT_EQ(llc.stats().hits, hits);
  EXPECT_EQ(llc.stats().misses, misses);
  EXPECT_EQ(llc.stats().writebacks, writebacks);
}

TEST(Llc, RealisticConfigSizes) {
  LlcConfig cfg;
  cfg.size_bytes = 2ull << 20;
  cfg.associativity = 16;
  Llc llc(cfg);
  EXPECT_EQ(llc.num_sets(), (2ull << 20) / (16 * kLineBytes));
}

}  // namespace
}  // namespace rop::cache
