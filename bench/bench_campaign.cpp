// Microbenchmarks (google-benchmark) for the aggregation machinery the
// campaign engine leans on: exact-summation Scalar recording/merging,
// histogram and registry merges, and the JSON parse of a per-run stats
// document. Gated numbers live in BENCH_campaign.json (ci_baseline_ns);
// the end-to-end wall-clock rows in that file come from ropsim runs, not
// this binary.
#include <benchmark/benchmark.h>

#include <sstream>
#include <string>

#include "common/json.h"
#include "common/stats.h"
#include "sim/experiment.h"

namespace {

using namespace rop;

// Scalar::record with integral samples stays on the single-partial fast
// path until the running sum crosses 2^53 — this is the controller's
// read-latency hot path, so it is the number to watch.
void BM_ScalarRecordInt(benchmark::State& state) {
  Scalar s;
  std::uint64_t v = 17;
  for (auto _ : state) {
    s.record(static_cast<double>(v));
    v = v * 2862933555777941757ull + 3037000493ull;
    v >>= 48;  // keep samples small so the sum stays exactly representable
  }
  benchmark::DoNotOptimize(s.count());
}

void BM_ScalarMerge(benchmark::State& state) {
  Scalar src;
  for (int i = 0; i < 1000; ++i) src.record(static_cast<double>(i % 97));
  for (auto _ : state) {
    Scalar dst;
    dst.record(1.0);
    dst.merge(src);
    benchmark::DoNotOptimize(dst.count());
  }
}

void BM_HistogramMerge(benchmark::State& state) {
  Histogram src(4, 64);
  for (std::uint64_t i = 0; i < 10'000; ++i) src.record(i % 300);
  Histogram dst(4, 64);
  for (auto _ : state) {
    dst.merge(src);
    benchmark::DoNotOptimize(dst.count());
  }
}

StatRegistry representative_registry() {
  StatRegistry reg;
  // Shapes mirror a real run: a few dozen counters, a handful of scalars
  // and histograms (mem.*, rop.*, coreN.*, llc.*).
  for (int i = 0; i < 48; ++i) {
    reg.counter("mem.counter_" + std::to_string(i)).inc(1'000'000 + i);
  }
  for (int i = 0; i < 6; ++i) {
    Scalar& s = reg.scalar("mem.scalar_" + std::to_string(i));
    for (int k = 0; k < 64; ++k) s.record(static_cast<double>(k * 3 + i));
  }
  for (int i = 0; i < 3; ++i) {
    Histogram& h = reg.histogram("mem.hist_" + std::to_string(i), 4, 64);
    for (std::uint64_t k = 0; k < 256; ++k) h.record(k);
  }
  return reg;
}

// What the campaign aggregate pays per merged cell.
void BM_RegistryMergeFrom(benchmark::State& state) {
  const StatRegistry src = representative_registry();
  StatRegistry dst = representative_registry();
  for (auto _ : state) {
    dst.merge_from(src);
    benchmark::DoNotOptimize(dst.counter_value("mem.counter_0"));
  }
}

// Campaign merge reads every cell document back through this parser; a
// tiny real experiment gives a document with the genuine shape and size.
void BM_JsonParseStatsDoc(benchmark::State& state) {
  sim::ExperimentSpec spec =
      sim::single_core_spec("lbm", sim::MemoryMode::kBaseline);
  spec.instructions_per_core = 5'000;
  const std::string doc = sim::run_experiment(spec).to_json();
  for (auto _ : state) {
    const auto parsed = json::parse(doc);
    benchmark::DoNotOptimize(parsed.has_value());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * doc.size()));
}

BENCHMARK(BM_ScalarRecordInt);
BENCHMARK(BM_ScalarMerge);
BENCHMARK(BM_HistogramMerge);
BENCHMARK(BM_RegistryMergeFrom);
BENCHMARK(BM_JsonParseStatsDoc);

}  // namespace
