// Aggregation primitives behind the campaign merge:
// Counter/Scalar/Histogram::merge, StatRegistry::merge_from, the registry
// reader that parses stats documents back, and the shared worker-budget
// policy. The load-bearing property is exactness: merging
// partial streams must reproduce the pooled single-stream result bit for
// bit, not approximately.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/stats.h"
#include "sim/worker_budget.h"
#include "telemetry/stats_json.h"

namespace rop {
namespace {

TEST(CounterMerge, AddsValues) {
  Counter a, b;
  a.inc(41);
  b.inc();
  b.inc(100);
  a.merge(b);
  EXPECT_EQ(a.value(), 142u);
  EXPECT_EQ(b.value(), 101u);  // source untouched
}

TEST(ScalarMerge, BitExactAgainstInterleavedRecording) {
  // Record one interleaved stream serially, and the same stream split
  // round-robin across four shards, then merged. The exact-summation
  // expansion makes the results bit-identical, not just close — doubles
  // chosen to defeat naive summation (large + tiny alternating).
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> small(1e-9, 1e-6);
  std::uniform_real_distribution<double> large(1e9, 1e12);

  Scalar pooled;
  std::vector<Scalar> shards(4);
  for (int i = 0; i < 10'000; ++i) {
    const double v = (i % 2 == 0) ? large(rng) : small(rng);
    pooled.record(v);
    shards[static_cast<std::size_t>(i) % shards.size()].record(v);
  }
  Scalar merged;
  for (const Scalar& s : shards) merged.merge(s);

  EXPECT_EQ(merged.count(), pooled.count());
  EXPECT_EQ(merged.sum(), pooled.sum());    // bit-exact, == not NEAR
  EXPECT_EQ(merged.mean(), pooled.mean());
  EXPECT_EQ(merged.min(), pooled.min());
  EXPECT_EQ(merged.max(), pooled.max());
}

TEST(ScalarMerge, EmptySidesAreNeutral) {
  Scalar empty, filled;
  filled.record(3.0);
  filled.record(-5.0);

  Scalar a = filled;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), -5.0);
  EXPECT_EQ(a.max(), 3.0);

  Scalar b = empty;
  b.merge(filled);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.sum(), filled.sum());
  EXPECT_EQ(b.min(), -5.0);
  EXPECT_EQ(b.max(), 3.0);
}

TEST(HistogramMerge, PercentilesMatchPooledRecomputation) {
  // The campaign merge reconstructs per-run histograms from JSON and folds
  // them; every derived statistic of the merged histogram must equal a
  // histogram that saw all samples directly.
  std::mt19937_64 rng(21);
  std::uniform_int_distribution<std::uint64_t> dist(0, 400);

  Histogram pooled(/*bucket_width=*/8, /*num_buckets=*/32);
  std::vector<Histogram> shards(3, Histogram(8, 32));
  for (int i = 0; i < 5'000; ++i) {
    const std::uint64_t v = dist(rng);
    pooled.record(v);
    shards[static_cast<std::size_t>(i) % shards.size()].record(v);
  }
  Histogram merged(8, 32);
  for (const Histogram& h : shards) merged.merge(h);

  EXPECT_EQ(merged.count(), pooled.count());
  EXPECT_EQ(merged.sum(), pooled.sum());
  EXPECT_EQ(merged.mean(), pooled.mean());
  for (std::size_t b = 0; b < pooled.num_buckets(); ++b) {
    EXPECT_EQ(merged.bucket(b), pooled.bucket(b));
  }
  for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    EXPECT_EQ(merged.percentile(p), pooled.percentile(p)) << "p" << p;
  }
}

TEST(HistogramMerge, PartsRoundTrip) {
  // Export a histogram's parts (as the JSON writer does) and rebuild via
  // the parts constructor: the reconstruction must be indistinguishable.
  Histogram orig(4, 8);
  for (std::uint64_t v : {0ull, 3ull, 4ull, 17ull, 100ull, 100ull}) {
    orig.record(v);
  }
  std::vector<std::uint64_t> buckets;
  for (std::size_t i = 0; i < orig.num_buckets(); ++i) {
    buckets.push_back(orig.bucket(i));
  }
  const Histogram rebuilt(orig.bucket_width(), buckets, orig.sum());
  EXPECT_EQ(rebuilt.count(), orig.count());
  EXPECT_EQ(rebuilt.sum(), orig.sum());
  EXPECT_EQ(rebuilt.mean(), orig.mean());
  EXPECT_EQ(rebuilt.percentile(95.0), orig.percentile(95.0));

  Histogram acc(4, 8);
  acc.merge(rebuilt);
  acc.merge(orig);
  EXPECT_EQ(acc.count(), 2 * orig.count());
  EXPECT_EQ(acc.sum(), 2 * orig.sum());
}

TEST(RegistryMerge, CreatesMissingAndFoldsExisting) {
  StatRegistry a, b;
  a.counter("mem.reads").inc(10);
  b.counter("mem.reads").inc(5);
  b.counter("mem.writes").inc(3);  // absent in `a` — must be created
  a.scalar("lat").record(2.0);
  b.scalar("lat").record(4.0);
  b.histogram("h", 2, 4).record(5);

  a.merge_from(b);
  EXPECT_EQ(a.counter_value("mem.reads"), 15u);
  EXPECT_EQ(a.counter_value("mem.writes"), 3u);
  const Scalar* lat = a.find_scalar("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), 2u);
  EXPECT_EQ(lat->sum(), 6.0);
  const Histogram* h = a.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(h->bucket_width(), 2u);  // adopted source geometry
}

TEST(RegistryMerge, RefusesAHistogramOfAnotherGeometry) {
  StatRegistry a, b;
  a.counter("mem.reads").inc(10);
  a.histogram("h", 2, 4).record(5);
  b.counter("mem.reads").inc(5);
  b.histogram("h", 4, 4).record(5);  // same name, other bucket width
  std::string err;
  EXPECT_FALSE(a.merge_from(b, &err));
  EXPECT_EQ(err, "histogram 'h' has another bucket geometry");
  EXPECT_EQ(a.counter_value("mem.reads"), 10u);  // nothing merged
  EXPECT_EQ(a.find_histogram("h")->count(), 1u);
}

std::string registry_text(const StatRegistry& reg) {
  std::ostringstream os;
  telemetry::JsonWriter w(os);
  w.begin_object();
  telemetry::write_registry_sections(w, reg);
  w.end_object();
  return os.str();
}

TEST(RegistryJson, ReadBackWritesTheSameBytes) {
  StatRegistry reg;
  reg.counter("mem.reads").inc(18'446'744'073'709'551'615ull);
  reg.counter("mem.writes");
  reg.scalar("empty");  // no samples: null min/max
  // 1e16 + 1 is not a double: the exact sum is held in two partials.
  Scalar& wide = reg.scalar("wide");
  wide.record(1e16);
  wide.record(1.0);
  wide.record(-3.5e-7);
  Histogram& h = reg.histogram("lat", 4, 8);  // 8 buckets + overflow
  for (const std::uint64_t v : {0ull, 3ull, 9ull, 31ull, 32ull, 500ull}) {
    h.record(v);
  }
  ASSERT_EQ(h.bucket(8), 2u);  // 32 and 500 land in the overflow bucket

  const std::string first = registry_text(reg);
  std::string err;
  const auto doc = json::parse(first, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  StatRegistry back;
  ASSERT_TRUE(telemetry::read_registry_sections(*doc, &back, &err)) << err;
  EXPECT_EQ(registry_text(back), first);
  EXPECT_NE(first.find(R"("empty":{"count":0,"sum":0,"mean":0,"min":null)"),
            std::string::npos)
      << first;
}

TEST(RegistryJson, RejectsMalformedEntries) {
  const auto read_error = [](const std::string& text) {
    const auto doc = json::parse(text);
    EXPECT_TRUE(doc.has_value()) << text;
    StatRegistry reg;
    std::string err;
    EXPECT_FALSE(telemetry::read_registry_sections(*doc, &reg, &err)) << text;
    return err;
  };
  const std::string empty_scalars = R"("scalars":{},"histograms":{})";
  EXPECT_EQ(read_error(R"({"counters":{"a":1.5},)" + empty_scalars + "}"),
            "counter 'a' is malformed");
  EXPECT_EQ(read_error(R"({"counters":{},"histograms":{}})"),
            "the counters/scalars/histograms layout is malformed");
  EXPECT_EQ(read_error(R"({"counters":{},"histograms":{},)"
                       R"("scalars":{"s":{"count":2,"sum":4,"min":null}}})"),
            "scalar 's' is malformed");
  const std::string hist_prefix = R"({"counters":{},"scalars":{},"histograms":)";
  // A count that disagrees with the buckets, a zero width, one bucket.
  EXPECT_EQ(read_error(hist_prefix + R"({"h":{"count":3,"sum":4,)"
                                     R"("bucket_width":2,"buckets":[1,1]}}})"),
            "histogram 'h' is malformed");
  EXPECT_EQ(read_error(hist_prefix + R"({"h":{"count":2,"sum":4,)"
                                     R"("bucket_width":0,"buckets":[1,1]}}})"),
            "histogram 'h' is malformed");
  EXPECT_EQ(read_error(hist_prefix + R"({"h":{"count":1,"sum":4,)"
                                     R"("bucket_width":2,"buckets":[1]}}})"),
            "histogram 'h' is malformed");
}

TEST(WorkerBudget, DividesHardwareByShards) {
  // requested_jobs = 0: derive from hardware_concurrency / shards. We can't
  // pin hw here, but the invariants hold on any machine.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(rop::sim::worker_budget(0, 1, 1'000), std::min<std::size_t>(
                                                      hw, 1'000));
  const unsigned halved = rop::sim::worker_budget(0, 2, 1'000);
  EXPECT_GE(halved, 1u);
  EXPECT_LE(halved, std::max(1u, hw / 2));
  // Shards beyond the machine still yield one job, never zero.
  EXPECT_EQ(rop::sim::worker_budget(0, 10 * hw, 1'000), 1u);
}

TEST(WorkerBudget, ExplicitRequestHonoredAndClamped) {
  EXPECT_EQ(rop::sim::worker_budget(6, 4, 100), 6u);  // user's call
  EXPECT_EQ(rop::sim::worker_budget(6, 4, 3), 3u);    // never > tasks
  EXPECT_EQ(rop::sim::worker_budget(1, 32, 100), 1u);  // --jobs 1 = serial
  EXPECT_EQ(rop::sim::worker_budget(0, 1, 0), 1u);     // zero tasks
}

}  // namespace
}  // namespace rop
