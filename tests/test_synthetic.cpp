// Synthetic workload generator tests.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "workload/geometric_gap.h"
#include "workload/spec_profiles.h"
#include "workload/synthetic.h"

namespace rop::workload {
namespace {

TEST(Synthetic, DeterministicForEqualConfig) {
  SyntheticConfig cfg;
  cfg.seed = 5;
  SyntheticTrace a(cfg), b(cfg);
  for (int i = 0; i < 2000; ++i) {
    const TraceRecord ra = a.next();
    const TraceRecord rb = b.next();
    EXPECT_EQ(ra.addr, rb.addr);
    EXPECT_EQ(ra.gap, rb.gap);
    EXPECT_EQ(ra.is_write, rb.is_write);
  }
}

TEST(Synthetic, ResetReplaysFromStart) {
  SyntheticTrace t(SyntheticConfig{});
  std::vector<TraceRecord> first;
  for (int i = 0; i < 100; ++i) first.push_back(t.next());
  t.reset();
  for (int i = 0; i < 100; ++i) {
    const TraceRecord r = t.next();
    EXPECT_EQ(r.addr, first[i].addr);
    EXPECT_EQ(r.gap, first[i].gap);
  }
}

TEST(Synthetic, RecordRingOnOffProducesIdenticalStream) {
  // The prefilled record ring is a pure amortization: any batch size (off,
  // default, odd) must hand out exactly the same record stream, including
  // across a bursty profile that exercises the idle-gap state machine.
  SyntheticConfig base = spec_profile("omnetpp", 3);
  base.burst_ops = 40;
  base.idle_instructions = 20'000;
  for (const std::uint32_t batch : {32u, 5u, 1u}) {
    SyntheticConfig off = base;
    off.batch_records = 0;
    SyntheticConfig on = base;
    on.batch_records = batch;
    SyntheticTrace a(off), b(on);
    for (int i = 0; i < 10'000; ++i) {
      const TraceRecord ra = a.next();
      const TraceRecord rb = b.next();
      ASSERT_EQ(ra.addr, rb.addr) << "batch=" << batch << " i=" << i;
      ASSERT_EQ(ra.gap, rb.gap) << "batch=" << batch << " i=" << i;
      ASSERT_EQ(ra.is_write, rb.is_write) << "batch=" << batch << " i=" << i;
    }
  }
}

TEST(Synthetic, ResetMidBatchReplaysFromStart) {
  SyntheticConfig cfg;
  cfg.batch_records = 16;
  SyntheticTrace t(cfg);
  std::vector<TraceRecord> first;
  for (int i = 0; i < 100; ++i) first.push_back(t.next());
  t.reset();  // ring_pos_ is mid-batch here; reset must discard the ring
  for (int i = 0; i < 100; ++i) {
    const TraceRecord r = t.next();
    ASSERT_EQ(r.addr, first[i].addr) << i;
    ASSERT_EQ(r.gap, first[i].gap) << i;
    ASSERT_EQ(r.is_write, first[i].is_write) << i;
  }
}

TEST(Synthetic, AddressesStayWithinFootprint) {
  SyntheticConfig cfg;
  cfg.footprint_lines = 1000;
  cfg.random_fraction = 0.5;
  SyntheticTrace t(cfg);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(t.next().addr >> kLineShift, 1000u);
  }
}

TEST(Synthetic, MeanGapApproximatesConfig) {
  SyntheticConfig cfg;
  cfg.mean_gap = 80;
  SyntheticTrace t(cfg);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += t.next().gap;
  EXPECT_NEAR(sum / n, 80.0, 8.0);
}

TEST(Synthetic, WriteFractionApproximatesConfig) {
  SyntheticConfig cfg;
  cfg.write_fraction = 0.4;
  SyntheticTrace t(cfg);
  int writes = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) writes += t.next().is_write ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(writes) / n, 0.4, 0.03);
}

TEST(Synthetic, PureStreamIsSequential) {
  SyntheticConfig cfg;
  cfg.streams = {{{+1}, 1.0}};
  cfg.random_fraction = 0.0;
  SyntheticTrace t(cfg);
  Address prev = t.next().addr;
  for (int i = 0; i < 1000; ++i) {
    const Address cur = t.next().addr;
    EXPECT_EQ(cur, prev + kLineBytes);
    prev = cur;
  }
}

TEST(Synthetic, MultiDeltaStreamCycles) {
  SyntheticConfig cfg;
  cfg.streams = {{{+1, +1, +130}, 1.0}};
  cfg.random_fraction = 0.0;
  SyntheticTrace t(cfg);
  const std::int64_t deltas[3] = {1, 1, 130};
  std::uint64_t prev = t.next().addr >> kLineShift;
  for (int i = 1; i < 300; ++i) {
    const std::uint64_t cur = t.next().addr >> kLineShift;
    EXPECT_EQ(cur - prev, static_cast<std::uint64_t>(deltas[i % 3]));
    prev = cur;
  }
}

TEST(Synthetic, EqualWeightStreamsInterleaveRoundRobin) {
  SyntheticConfig cfg;
  cfg.streams = {{{+1}, 1.0}, {{+1}, 1.0}};
  cfg.random_fraction = 0.0;
  cfg.footprint_lines = 1 << 20;
  SyntheticTrace t(cfg);
  // Accesses alternate between two regions (stream starts differ).
  const std::uint64_t half = (1 << 20) / 2;
  int region_prev = -1;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t line = t.next().addr >> kLineShift;
    const int region = line >= half ? 1 : 0;
    if (region_prev >= 0) {
      EXPECT_NE(region, region_prev);
    }
    region_prev = region;
  }
}

TEST(Synthetic, WeightedStreamsGetProportionalShare) {
  SyntheticConfig cfg;
  cfg.streams = {{{+1}, 3.0}, {{+1}, 1.0}};
  cfg.random_fraction = 0.0;
  cfg.footprint_lines = 1 << 20;
  SyntheticTrace t(cfg);
  const std::uint64_t half = (1 << 20) / 2;
  int low = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    if ((t.next().addr >> kLineShift) < half) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / n, 0.75, 0.02);
}

TEST(Synthetic, BurstinessCreatesLongIdleGaps) {
  SyntheticConfig cfg;
  cfg.mean_gap = 10;
  cfg.burst_ops = 50;
  cfg.idle_instructions = 100'000;
  SyntheticTrace t(cfg);
  std::uint32_t max_gap = 0;
  for (int i = 0; i < 5000; ++i) max_gap = std::max(max_gap, t.next().gap);
  EXPECT_GT(max_gap, 50'000u);
}

// ---------------------------------------------------------------------------
// Exactness of the table-driven generator. The record stream is part of every
// simulated result, so it is pinned three ways: digests of the profile
// streams as the libm-per-draw generator produced them, a record-by-record
// comparison with that generator on edge configs, and the gap sampler
// against its libm reference at every place its table could be wrong.

/// FNV-1a over the first `n` records (gap as 4 bytes, is_write as 1, addr
/// as 8, little-endian).
std::uint64_t stream_digest(SyntheticTrace& t, std::uint64_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (std::uint64_t i = 0; i < n; ++i) {
    const TraceRecord r = t.next();
    mix(r.gap, 4);
    mix(r.is_write ? 1 : 0, 1);
    mix(r.addr, 8);
  }
  return h;
}

TEST(Synthetic, GoldenStreamDigests) {
  // First 1M records of every profile for seed_salt 1 and 7, as generated
  // by the generator that called log1p and divided on every draw. The
  // profile seeds go through std::hash, so these digests are those of
  // libstdc++ builds.
  struct Golden {
    const char* name;
    std::uint64_t salt;
    std::uint64_t digest;
  };
  static constexpr Golden kGolden[] = {
      {"perlbench", 1, 0x93ae60ce1cf2cba2ull},
      {"perlbench", 7, 0x6cbf00ad43884e6dull},
      {"bzip2", 1, 0xbc72dc7043c8ca80ull},
      {"bzip2", 7, 0x264eb37f77b0a2a1ull},
      {"gobmk", 1, 0x4c5d4e4d67210ff3ull},
      {"gobmk", 7, 0xd400306f51efdd9full},
      {"gemsfdtd", 1, 0xe03f02dd29e77a8bull},
      {"gemsfdtd", 7, 0x191c0cc341c41b9full},
      {"libquantum", 1, 0x4c678901ebeb7ae2ull},
      {"libquantum", 7, 0xc264b2a25d4fda5bull},
      {"lbm", 1, 0xa359dd55624a04f2ull},
      {"lbm", 7, 0x37b7d8882d5b4056ull},
      {"omnetpp", 1, 0x765afef46a69cf02ull},
      {"omnetpp", 7, 0xaf34a11a2cd7fa80ull},
      {"astar", 1, 0x46b4800cee93b730ull},
      {"astar", 7, 0xea6801285f8212bdull},
      {"wrf", 1, 0x425d32b85fc1902cull},
      {"wrf", 7, 0xbd30233e6ad93329ull},
      {"gcc", 1, 0x6349e4a9682d8bf5ull},
      {"gcc", 7, 0x29520331244135f8ull},
      {"bwaves", 1, 0x2abbf87017bce447ull},
      {"bwaves", 7, 0x73493bb0c6ed328cull},
      {"cactusadm", 1, 0xaa377175b6280331ull},
      {"cactusadm", 7, 0x475f7b81f612caf0ull},
  };
  ASSERT_EQ(std::size(kGolden), 2 * kBenchmarkNames.size());
  for (const Golden& g : kGolden) {
    SyntheticTrace t(spec_profile(g.name, g.salt));
    EXPECT_EQ(stream_digest(t, 1'000'000), g.digest)
        << g.name << " seed_salt " << g.salt;
  }
}

/// The generator before the gap table and the division-free walk, kept
/// verbatim as the oracle: one log1p per gap draw (plus one for its
/// denominator), `%` for the delta cursor and the footprint wrap, no
/// record ring.
class ReferenceGenerator {
 public:
  explicit ReferenceGenerator(const SyntheticConfig& cfg)
      : cfg_(cfg), rng_(cfg.seed) {
    positions_.assign(cfg_.streams.size(), 0);
    delta_idx_.assign(cfg_.streams.size(), 0);
    credits_.assign(cfg_.streams.size(), 0.0);
    for (std::size_t s = 0; s < cfg_.streams.size(); ++s) {
      total_weight_ += cfg_.streams[s].weight;
      positions_[s] =
          ((cfg_.footprint_lines / cfg_.streams.size()) * s + 131 * s) %
          cfg_.footprint_lines;
    }
    ops_until_idle_ = cfg_.burst_ops > 0 ? next_gap(cfg_.burst_ops) : 0;
  }

  TraceRecord next() {
    TraceRecord rec;
    std::uint64_t gap = cfg_.mean_gap > 0 ? next_gap(cfg_.mean_gap) - 1 : 0;
    if (cfg_.burst_ops > 0 && cfg_.idle_instructions > 0) {
      if (ops_until_idle_ == 0) {
        gap += next_gap(cfg_.idle_instructions);
        ops_until_idle_ = next_gap(cfg_.burst_ops);
      } else {
        --ops_until_idle_;
      }
    }
    rec.gap = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(gap, 0x7FFFFFFFull));
    rec.is_write = rng_.next_bool(cfg_.write_fraction);
    std::uint64_t line;
    if (rng_.next_bool(cfg_.random_fraction)) {
      line = rng_.next_below(cfg_.footprint_lines);
    } else {
      std::size_t s = 0;
      double best = -1.0;
      for (std::size_t i = 0; i < cfg_.streams.size(); ++i) {
        credits_[i] += cfg_.streams[i].weight;
        if (credits_[i] > best) {
          best = credits_[i];
          s = i;
        }
      }
      credits_[s] -= total_weight_;
      const StreamSpec& spec = cfg_.streams[s];
      const std::int64_t d = spec.deltas[delta_idx_[s]];
      delta_idx_[s] = (delta_idx_[s] + 1) % spec.deltas.size();
      std::int64_t pos = static_cast<std::int64_t>(positions_[s]) + d;
      const auto fp = static_cast<std::int64_t>(cfg_.footprint_lines);
      pos %= fp;
      if (pos < 0) pos += fp;
      positions_[s] = static_cast<std::uint64_t>(pos);
      line = positions_[s];
    }
    rec.addr = line << kLineShift;
    return rec;
  }

 private:
  std::uint64_t next_gap(double mean) {
    if (mean <= 1.0) return 1;
    const double denom = __builtin_log1p(-1.0 / mean);
    double u = rng_.next_double();
    if (u >= 1.0) u = 0.9999999999999999;
    const double g = __builtin_log1p(-u) / denom;
    const auto out = static_cast<std::uint64_t>(g) + 1;
    return out == 0 ? 1 : out;
  }

  SyntheticConfig cfg_;
  Rng rng_;
  std::vector<std::uint64_t> positions_;
  std::vector<std::size_t> delta_idx_;
  std::vector<double> credits_;
  double total_weight_ = 0.0;
  std::uint64_t ops_until_idle_ = 0;
};

TEST(Synthetic, MatchesReferenceGeneratorOnEdgeConfigs) {
  struct Shape {
    const char* what;
    std::uint64_t footprint;
    std::vector<StreamSpec> streams;
    double random_fraction;
    double burst_ops;
    double idle;
  };
  const std::vector<Shape> shapes = {
      {"negative deltas, pow2 footprint", 1 << 12,
       {{{-1}, 1.0}, {{+3, -7, +2}, 0.5}}, 0.1, 0, 0},
      {"|delta| >= footprint", 1000,
       {{{+1500, -2500, +1000}, 1.0}, {{-1000, +1}, 2.0}}, 0.05, 0, 0},
      {"non-pow2 footprint, bursts", 12'345,
       {{{+1}, 1.0}, {{+11, +3}, 0.7}}, 0.3, 40, 20'000},
      {"all random", 777, {{{+1}, 1.0}}, 1.0, 60, 5'000},
      {"no random, bursts <= 1", 1 << 10, {{{+1, +1, +130}, 1.0}}, 0.0, 0.5,
       0.5},
      {"no random, idle <= 1", 999, {{{-3}, 1.0}, {{+5}, 1.0}}, 0.0, 7, 1.0},
  };
  for (const double mean : {0.0, 0.5, 1.0, 1.0 + 1e-9, 2.5, 5000.0}) {
    for (const Shape& shape : shapes) {
      for (const std::uint32_t batch : {0u, 1u, 32u}) {
        SyntheticConfig cfg;
        cfg.mean_gap = mean;
        cfg.write_fraction = 0.4;
        cfg.footprint_lines = shape.footprint;
        cfg.streams = shape.streams;
        cfg.random_fraction = shape.random_fraction;
        cfg.burst_ops = shape.burst_ops;
        cfg.idle_instructions = shape.idle;
        cfg.seed = 0x1234 + batch;
        cfg.batch_records = batch;
        ReferenceGenerator ref(cfg);
        SyntheticTrace t(cfg);
        for (int i = 0; i < 20'000; ++i) {
          const TraceRecord want = ref.next();
          const TraceRecord got = t.next();
          ASSERT_EQ(got.gap, want.gap) << shape.what << " mean=" << mean
                                       << " batch=" << batch << " i=" << i;
          ASSERT_EQ(got.is_write, want.is_write)
              << shape.what << " mean=" << mean << " batch=" << batch
              << " i=" << i;
          ASSERT_EQ(got.addr, want.addr) << shape.what << " mean=" << mean
                                         << " batch=" << batch << " i=" << i;
        }
      }
    }
  }
}

/// Every mean the profiles draw gaps from (compute gaps, idle periods and
/// busy-phase lengths), plus edge means.
std::vector<double> sampler_means() {
  std::set<double> means = {1.0 + 1e-9, 1.5, 2.5, 5000.0};
  for (const auto name : kBenchmarkNames) {
    const SyntheticConfig cfg = spec_profile(name);
    means.insert(cfg.mean_gap);
    if (cfg.idle_instructions > 0) means.insert(cfg.idle_instructions);
    if (cfg.burst_ops > 0) means.insert(cfg.burst_ops);
  }
  return {means.begin(), means.end()};
}

TEST(GeometricGap, MatchesReferenceAtThresholdsBucketEdgesAndTail) {
  constexpr std::uint64_t kOne = 1ull << 53;
  constexpr std::uint64_t g = GeometricGap::kGuard;
  for (const double mean : sampler_means()) {
    const GeometricGap gap(mean);
    const std::vector<std::uint64_t>& t = gap.thresholds();
    ASSERT_GE(t.size(), 2u) << mean;
    ASSERT_GT(gap.cutoff(), 0u) << mean;
    const auto check = [&](std::uint64_t x) {
      if (x >= kOne) return;
      ASSERT_EQ(gap.draw_from_bits(x), Rng::gap_from_bits(x, gap.denom()))
          << "mean=" << mean << " x=" << x;
    };
    for (const std::uint64_t tj : t) {
      // Offsets below 0 wrap past 2^53 and are skipped by check().
      for (const std::uint64_t x : {tj - g - 1, tj - g, tj - 1, tj, tj + g,
                                    tj + g + 1}) {
        check(x);
      }
    }
    for (std::uint64_t edge = 0; edge < kOne;
         edge += std::uint64_t{1} << gap.bucket_shift()) {
      check(edge);
      if (edge > 0) check(edge - 1);
    }
    for (const std::uint64_t x :
         {gap.cutoff() - 1, gap.cutoff(), gap.cutoff() + 1, kOne - 1}) {
      check(x);
    }
    Rng rng(static_cast<std::uint64_t>(mean * 1000));
    for (int i = 0; i < 20'000; ++i) check(rng.next_u64() >> 11);
  }
}

TEST(GeometricGap, TableCoversTheBodyOfTheDistribution) {
  // The table must actually carry the common case: for every per-record
  // mean the profiles use it reaches the u = 1 - 2^-6 tail cutoff, so at
  // most ~1.6% of draws take the libm path.
  constexpr std::uint64_t kTail = (1ull << 53) - (1ull << 47);
  for (const auto name : kBenchmarkNames) {
    const GeometricGap gap(spec_profile(name).mean_gap);
    EXPECT_EQ(gap.cutoff(), kTail) << name;
    EXPECT_LE(gap.thresholds().size(),
              std::size_t{GeometricGap::kMaxThresholds} + 1);
  }
  // Means too small to draw never consume a draw.
  Rng a(3), b(3);
  const GeometricGap one(1.0);
  EXPECT_TRUE(one.thresholds().empty());
  EXPECT_EQ(one.draw(a), 1u);
  EXPECT_EQ(a.state(), b.state());
}

TEST(SpecProfiles, AllTwelveBenchmarksBuild) {
  for (const auto name : kBenchmarkNames) {
    const SyntheticConfig cfg = spec_profile(name);
    EXPECT_EQ(cfg.name, std::string(name));
    EXPECT_FALSE(cfg.streams.empty());
    EXPECT_GT(cfg.footprint_lines, 0u);
    SyntheticTrace t(cfg);
    for (int i = 0; i < 100; ++i) t.next();
  }
}

TEST(SpecProfiles, IntensiveSplitMatchesTableII) {
  int intensive = 0;
  for (const auto name : kBenchmarkNames) {
    if (is_intensive(name)) ++intensive;
  }
  EXPECT_EQ(intensive, 6);
  EXPECT_TRUE(is_intensive("lbm"));
  EXPECT_TRUE(is_intensive("libquantum"));
  EXPECT_FALSE(is_intensive("gobmk"));
  EXPECT_FALSE(is_intensive("perlbench"));
}

TEST(SpecProfiles, IntensiveBenchmarksHaveSmallerGaps) {
  double intensive_mean = 0, quiet_mean = 0;
  for (const auto name : kBenchmarkNames) {
    const SyntheticConfig cfg = spec_profile(name);
    (is_intensive(name) ? intensive_mean : quiet_mean) += cfg.mean_gap / 6.0;
  }
  EXPECT_LT(intensive_mean, quiet_mean);
}

TEST(SpecProfiles, SeedSaltDecorrelates) {
  SyntheticTrace a(spec_profile("bzip2", 0));
  SyntheticTrace b(spec_profile("bzip2", 1));
  int same = 0;
  for (int i = 0; i < 200; ++i) {
    if (a.next().addr == b.next().addr) ++same;
  }
  EXPECT_LT(same, 100);
}

TEST(SpecProfiles, WorkloadMixesAreFourWide) {
  std::set<std::string> all;
  for (std::uint32_t wl = 1; wl <= kNumWorkloadMixes; ++wl) {
    const auto mix = workload_mix(wl);
    EXPECT_EQ(mix.size(), 4u);
    for (const auto& b : mix) {
      all.insert(b);
      // Every entry is a known benchmark.
      EXPECT_NE(std::find(kBenchmarkNames.begin(), kBenchmarkNames.end(), b),
                kBenchmarkNames.end());
    }
  }
  EXPECT_EQ(all.size(), 12u);  // every benchmark appears somewhere
}

TEST(SpecProfiles, MixNumbersNameWl1ToWl6Only) {
  for (std::uint32_t wl = 1; wl <= kNumWorkloadMixes; ++wl) {
    EXPECT_EQ(workload_mix_number("wl" + std::to_string(wl)), wl);
  }
  for (const char* other : {"wl0", "wl7", "wl", "wl12", "lbm", "WL1"}) {
    EXPECT_EQ(workload_mix_number(other), 0u) << other;
  }
}

TEST(SpecProfiles, MixIntensityDecreasesFromWl1ToWl6) {
  const auto count_intensive = [](std::uint32_t wl) {
    int n = 0;
    for (const auto& b : workload_mix(wl)) n += is_intensive(b) ? 1 : 0;
    return n;
  };
  EXPECT_EQ(count_intensive(1), 4);
  EXPECT_EQ(count_intensive(6), 0);
  EXPECT_GE(count_intensive(2), count_intensive(5));
}

}  // namespace
}  // namespace rop::workload
