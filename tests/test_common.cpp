// Unit tests for the common substrate: RNG, statistics, table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/fnv1a.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace rop {
namespace {

TEST(Fnv1a, MatchesReferenceVectors) {
  // 64-bit FNV-1a reference values (offset basis 14695981039346656037).
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  const std::uint64_t first = a.next_u64();
  a.next_u64();
  a.reseed(7);
  EXPECT_EQ(a.next_u64(), first);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng r(3);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(r.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng r(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng r(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.next_bool(0.0));
    EXPECT_TRUE(r.next_bool(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng r(11);
  int heads = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (r.next_bool(0.3)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.02);
}

/// Probabilities at and around the points where the integer threshold and
/// the double comparison could part: the edges of (0, 1), the smallest
/// subnormal, exact multiples of 2^-53 and their neighbours one ulp away,
/// and values from the generator's and the core's configs.
std::vector<double> bernoulli_probabilities() {
  const double k = 12345 * 0x1.0p-53;
  return {0.0,
          0x1.0p-1074,
          0x1.0p-53,
          3 * 0x1.0p-53,
          std::nextafter(k, 0.0),
          k,
          std::nextafter(k, 1.0),
          0.01,
          0.35,
          0.45,
          1.0 - 0x1.0p-53,
          1.0};
}

TEST(Rng, BernoulliThresholdMatchesNextBool) {
  // From the same state, the threshold trial gives next_bool's outcomes and
  // consumes the same draws (none for p <= 0 or p >= 1, also out of range
  // or NaN).
  std::vector<double> ps = bernoulli_probabilities();
  ps.insert(ps.end(), {-0.5, 1.5, std::nan("")});
  for (const double p : ps) {
    const Bernoulli trial(p);
    for (const std::uint64_t seed : {1ull, 2ull, 99ull}) {
      Rng a(seed);
      Rng b(seed);
      for (int i = 0; i < 2000; ++i) {
        ASSERT_EQ(trial.draw(a), b.next_bool(p))
            << "p " << p << " seed " << seed << " draw " << i;
      }
      ASSERT_EQ(a.state(), b.state()) << "p " << p << " seed " << seed;
    }
  }
}

TEST(Rng, BernoulliThresholdIsExactAtTheBoundary) {
  // Random draws almost never land next to the threshold, so check the
  // threshold itself: for the uniform bits x on either side of it,
  // x < threshold agrees with next_double's x * 2^-53 < p.
  for (const double p : bernoulli_probabilities()) {
    if (p <= 0.0 || p >= 1.0) continue;
    const std::uint64_t t = Bernoulli(p).threshold();
    for (std::uint64_t x = t > 2 ? t - 2 : 0; x <= t + 1 && x < (1ull << 53);
         ++x) {
      EXPECT_EQ(x < t, static_cast<double>(x) * 0x1.0p-53 < p)
          << "p " << p << " x " << x;
    }
  }
  const double k = 12345 * 0x1.0p-53;
  EXPECT_EQ(Bernoulli(0x1.0p-1074).threshold(), 1u);
  EXPECT_EQ(Bernoulli(0x1.0p-53).threshold(), 1u);
  EXPECT_EQ(Bernoulli(3 * 0x1.0p-53).threshold(), 3u);
  EXPECT_EQ(Bernoulli(std::nextafter(k, 0.0)).threshold(), 12345u);
  EXPECT_EQ(Bernoulli(k).threshold(), 12345u);
  EXPECT_EQ(Bernoulli(std::nextafter(k, 1.0)).threshold(), 12346u);
  EXPECT_EQ(Bernoulli(1.0 - 0x1.0p-53).threshold(), (1ull << 53) - 1);
}

TEST(Rng, GeometricGapMeanApproximatesTarget) {
  Rng r(13);
  for (double mean : {2.0, 10.0, 100.0}) {
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(r.next_gap(mean));
    EXPECT_NEAR(sum / n, mean, mean * 0.1);
  }
}

TEST(Rng, GapIsAtLeastOne) {
  Rng r(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(r.next_gap(1.5), 1u);
  }
  // Degenerate mean collapses to 1.
  EXPECT_EQ(r.next_gap(0.5), 1u);
}

TEST(Stats, CounterAccumulates) {
  StatRegistry reg;
  reg.counter("a").inc();
  reg.counter("a").inc(4);
  EXPECT_EQ(reg.counter_value("a"), 5u);
  EXPECT_EQ(reg.counter_value("missing"), 0u);
}

TEST(Stats, ScalarTracksMoments) {
  StatRegistry reg;
  auto& s = reg.scalar("lat");
  s.record(10.0);
  s.record(20.0);
  s.record(30.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 20.0);
  EXPECT_DOUBLE_EQ(s.min(), 10.0);
  EXPECT_DOUBLE_EQ(s.max(), 30.0);
}

TEST(Stats, EmptyScalarIsZero) {
  Scalar s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(Stats, HistogramBucketsAndOverflow) {
  Histogram h(10, 4);  // buckets [0,10) [10,20) [20,30) [30,40) + overflow
  h.record(0);
  h.record(9);
  h.record(10);
  h.record(39);
  h.record(1000);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(4), 1u);  // overflow
}

TEST(Stats, HistogramQuantileMonotone) {
  Histogram h(1, 100);
  for (std::uint64_t v = 0; v < 100; ++v) h.record(v);
  // Samples 0..99 fill buckets [0, 1) .. [99, 100): every percentile lies
  // between the lowest bucket's lower edge and the highest one's upper
  // edge, and none falls as p rises.
  double prev = h.percentile(0.0);
  EXPECT_DOUBLE_EQ(prev, 0.0);
  for (int p = 1; p <= 100; ++p) {
    const double q = h.percentile(static_cast<double>(p));
    EXPECT_GE(q, prev) << "p" << p;
    EXPECT_LE(q, 100.0) << "p" << p;
    prev = q;
  }
  EXPECT_DOUBLE_EQ(prev, 100.0);
}

TEST(Stats, HistogramPercentileEmpty) {
  const Histogram h(10, 4);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 0.0);
}

TEST(Stats, HistogramPercentileSingleSample) {
  Histogram h(10, 4);
  h.record(5);  // bucket [0, 10)
  // One sample: p0 pins the bucket's lower edge, p100 its upper edge, and
  // interior percentiles interpolate linearly across the bucket.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 10.0);
}

TEST(Stats, HistogramPercentileEdgesSkipEmptyBuckets) {
  Histogram h(10, 4);
  h.record(25);  // bucket [20, 30) — buckets 0 and 1 stay empty
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 20.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 30.0);
  EXPECT_LE(h.percentile(0.0), h.percentile(50.0));
  EXPECT_LE(h.percentile(50.0), h.percentile(100.0));
}

TEST(Stats, HistogramMergeThenPercentileMatchesCombined) {
  Histogram lo(1, 100);
  Histogram hi(1, 100);
  Histogram all(1, 100);
  for (std::uint64_t v = 0; v < 50; ++v) {
    lo.record(v);
    all.record(v);
  }
  for (std::uint64_t v = 50; v < 100; ++v) {
    hi.record(v);
    all.record(v);
  }
  lo.merge(hi);
  EXPECT_EQ(lo.count(), all.count());
  EXPECT_EQ(lo.sum(), all.sum());
  for (const double p : {0.0, 25.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(lo.percentile(p), all.percentile(p)) << "p=" << p;
  }
}

TEST(Stats, ResetAllClearsEverything) {
  StatRegistry reg;
  reg.counter("c").inc(3);
  reg.scalar("s").record(1.0);
  reg.histogram("h", 1, 4).record(2);
  reg.reset_all();
  EXPECT_EQ(reg.counter_value("c"), 0u);
  EXPECT_EQ(reg.find_scalar("s")->count(), 0u);
  EXPECT_EQ(reg.find_histogram("h")->count(), 0u);
}

TEST(Stats, ReportContainsNames) {
  StatRegistry reg;
  reg.counter("mem.reads").inc(7);
  const std::string report = reg.report();
  EXPECT_NE(report.find("mem.reads 7"), std::string::npos);
}

TEST(Table, RendersHeaderAndRows) {
  TextTable t("demo");
  t.set_header({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2"});
  const std::string out = t.render();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(TextTable::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::pct(0.5, 1), "50.0%");
}

}  // namespace
}  // namespace rop
