// Microbenchmarks (google-benchmark) for the CPU front end: per-core gap
// retirement (naive vs closed-form run_until), the synthetic-trace record
// ring and its gap sampler, the LLC (MRU hit, non-MRU hit, streaming dirty
// miss), and one functional-backbone record end to end. Gated numbers live
// in BENCH_corefront.json (ci_baseline_ns).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>

#include "cache/llc.h"
#include "common/rng.h"
#include "cpu/core.h"
#include "workload/geometric_gap.h"
#include "workload/spec_profiles.h"
#include "workload/synthetic.h"

namespace {

using namespace rop;

/// Memory port that accepts everything instantly — the benches target the
/// core's retirement arithmetic, not the memory system.
struct NullPort final : cpu::MemoryPort {
  std::optional<RequestId> issue_read(CoreId, Address) override {
    return ++id;
  }
  bool issue_write(CoreId, Address) override { return true; }
  RequestId id = 0;
};

workload::SyntheticConfig compute_heavy_trace(std::uint32_t batch) {
  workload::SyntheticConfig cfg;
  cfg.mean_gap = 400.0;  // gap-dominated: the event loop's best case
  cfg.write_fraction = 0.2;
  cfg.footprint_lines = 1ull << 16;
  cfg.random_fraction = 0.1;
  cfg.batch_records = batch;
  return cfg;
}

cpu::CoreConfig bench_core_config() {
  cpu::CoreConfig cfg;
  cfg.issue_width = 4;
  // Effectively unbounded: a capped MSHR count would block the core on
  // the NullPort (which never completes mid-iteration) and turn both
  // loops into stall-spinning, hiding the retirement cost under test.
  cfg.max_outstanding = 1u << 20;
  // No critical loads: the core never sleeps, so both strategies measure
  // pure retirement cost over the same cycle count.
  cfg.critical_load_fraction = 0.0;
  return cfg;
}

constexpr std::uint64_t kCyclesPerIter = 4096;

void drain(cpu::Core& core) {
  while (core.outstanding() > 0) {
    core.on_read_complete(0, core.stats().cycles);
  }
}

void BM_CoreNaiveGapCycles(benchmark::State& state) {
  // Reference loop: one cycle() call per CPU cycle, ~100 of every 101
  // cycles pure compute-gap arithmetic at mean_gap 400 / width 4.
  workload::SyntheticTrace trace(compute_heavy_trace(32));
  cache::LlcConfig llc;
  llc.size_bytes = 1ull << 20;
  NullPort port;
  cpu::Core core(0, bench_core_config(), llc, trace, port);
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < kCyclesPerIter; ++i) core.cycle();
    drain(core);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kCyclesPerIter));
}
BENCHMARK(BM_CoreNaiveGapCycles);

void BM_CoreEventGapCycles(benchmark::State& state) {
  // Same simulated cycles through next_event_cycle + run_until: compute
  // gaps collapse into one bulk update each.
  workload::SyntheticTrace trace(compute_heavy_trace(32));
  cache::LlcConfig llc;
  llc.size_bytes = 1ull << 20;
  NullPort port;
  cpu::Core core(0, bench_core_config(), llc, trace, port);
  for (auto _ : state) {
    const std::uint64_t target = core.stats().cycles + kCyclesPerIter;
    while (core.stats().cycles < target) {
      const std::uint64_t next = core.next_event_cycle();
      if (next > core.stats().cycles) {
        core.run_until(std::min(next, target));
      } else {
        core.cycle();
      }
    }
    drain(core);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kCyclesPerIter));
}
BENCHMARK(BM_CoreEventGapCycles);

void BM_SyntheticTraceNext(benchmark::State& state) {
  // Per-record generation cost; arg = batch_records (0 disables the ring).
  workload::SyntheticConfig cfg;
  cfg.mean_gap = 180.0;
  cfg.streams = {{{+1, +1, +130}, 1.0}, {{+1}, 2.0}};
  cfg.random_fraction = 0.2;
  cfg.burst_ops = 100.0;
  cfg.idle_instructions = 1000.0;
  cfg.batch_records = static_cast<std::uint32_t>(state.range(0));
  workload::SyntheticTrace trace(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace.next());
  }
}
BENCHMARK(BM_SyntheticTraceNext)->Arg(0)->Arg(32);

void BM_SyntheticTraceNextLbm(benchmark::State& state) {
  // The lbm profile as the sampled headline generates it (ring on): two
  // unit streams, mean gap 180, 1% random accesses, never idle.
  workload::SyntheticTrace trace(workload::spec_profile("lbm", 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace.next());
  }
}
BENCHMARK(BM_SyntheticTraceNextLbm);

void BM_GeometricGap(benchmark::State& state) {
  // One gap draw at mean 180: arg 1 = threshold table, arg 0 = the libm
  // reference (Rng::gap_from_bits) it replaces.
  const workload::GeometricGap gap(180.0);
  Rng rng(11);
  if (state.range(0) != 0) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(gap.draw(rng));
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          Rng::gap_from_bits(rng.next_u64() >> 11, gap.denom()));
    }
  }
}
BENCHMARK(BM_GeometricGap)->Arg(0)->Arg(1);

void BM_LlcMruHit(benchmark::State& state) {
  // Repeated touches to the hottest line in a set: the MRU probe resolves
  // the hit with one tag compare instead of a 16-way scan.
  cache::LlcConfig cfg;
  cfg.size_bytes = 2ull << 20;
  cache::Llc llc(cfg);
  llc.access(0x40000, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(llc.access(0x40000, false));
  }
}
BENCHMARK(BM_LlcMruHit);

void BM_LlcStreamingMiss(benchmark::State& state) {
  // The functional backbone's pattern: a full 2 MiB/16-way cache taking
  // sequential-line write misses, so every access evicts the set's LRU way
  // and that victim is dirty.
  cache::LlcConfig cfg;
  cfg.size_bytes = 2ull << 20;
  cache::Llc llc(cfg);
  Address addr = 0;
  for (; addr < cfg.size_bytes; addr += kLineBytes) llc.access(addr, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(llc.access(addr, true));
    addr += kLineBytes;
  }
}
BENCHMARK(BM_LlcStreamingMiss);

void BM_LlcSetScanHit(benchmark::State& state) {
  // Round-robin over the 16 lines of one full set: every access hits the
  // set's least-recent way, never the MRU one, so it pays the set scan and
  // the longest recency-list update.
  cache::LlcConfig cfg;
  cfg.size_bytes = 2ull << 20;
  cache::Llc llc(cfg);
  const Address set_stride = Address{llc.num_sets()} * kLineBytes;
  for (std::uint32_t w = 0; w < cfg.associativity; ++w) {
    llc.access(w * set_stride, false);
  }
  std::uint32_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(llc.access(next * set_stride, false));
    next = (next + 1) % cfg.associativity;
  }
}
BENCHMARK(BM_LlcSetScanHit);

/// Hands out the lbm generator's records one ahead, so the bench knows the
/// compute gap of the record the core fetches next.
class PeekingTrace final : public workload::TraceSource {
 public:
  explicit PeekingTrace(const workload::SyntheticConfig& cfg)
      : trace_(cfg), next_(trace_.next()) {}
  workload::TraceRecord next() override {
    const workload::TraceRecord rec = next_;
    next_ = trace_.next();
    return rec;
  }
  void reset() override {
    trace_.reset();
    next_ = trace_.next();
  }
  [[nodiscard]] const workload::TraceRecord& peek() const { return next_; }

 private:
  workload::SyntheticTrace trace_;
  workload::TraceRecord next_;
};

void BM_FunctionalAdvanceLbm(benchmark::State& state) {
  // One backbone record per iteration: Core::functional_advance over the
  // record's compute gap and its memory op, as the sampled loop's
  // functional windows run lbm (2 MiB LLC, default core, 160-cycle critical
  // penalty). That is the record's generation, the LLC access (lbm misses
  // on nearly every one) and the criticality draw. The LLC is warm.
  PeekingTrace trace(workload::spec_profile("lbm", 1));
  cache::LlcConfig llc;
  llc.size_bytes = 2ull << 20;
  NullPort port;
  cpu::Core core(0, cpu::CoreConfig{}, llc, trace, port);
  constexpr Cycle kCriticalPenalty = 160;
  core.functional_advance(20'000'000, kCriticalPenalty);
  // Finish the record in flight, so each call below starts a fresh one.
  if (core.have_record()) {
    core.functional_advance(core.remaining_gap() + 1, kCriticalPenalty);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core.functional_advance(trace.peek().gap + 1, kCriticalPenalty));
  }
}
BENCHMARK(BM_FunctionalAdvanceLbm);

}  // namespace
