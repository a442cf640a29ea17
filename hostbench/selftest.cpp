// The benchmark's own checks: the digest and the trace decorators must be
// trustworthy before any timing built on them is. Run with
//   .bench_build/hostbench/hostbench_selftest
// (or python3 hostbench/run.py --selftest); exit code 0 when all pass.
#include <cstdio>
#include <string>

#include "bench_core.h"
#include "layers.h"

namespace {

namespace sim = rop::sim;
using namespace hostbench;

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

sim::ExperimentSpec short_rop(std::uint64_t seed) {
  sim::ExperimentSpec spec = sim::single_core_spec("lbm", sim::MemoryMode::kRop);
  spec.instructions_per_core = 3'000'000;
  spec.seed_salt = seed;
  return spec;
}

sim::ExperimentSpec short_darp(std::uint64_t seed) {
  sim::ExperimentSpec spec =
      sim::multi_core_spec(1, sim::MemoryMode::kDarp, false);
  spec.channels = 4;
  spec.shard_channels = 2;
  spec.instructions_per_core = 500'000;
  spec.seed_salt = seed;
  return spec;
}

std::uint64_t digest_of(const sim::ExperimentSpec& spec) {
  return stats_digest(sim::run_experiment(spec).to_json());
}

}  // namespace

int main() {
  // (1) The decorators are transparent: a traced run simulates exactly what
  // the untraced run does.
  for (const auto& [name, spec] :
       {std::pair{"rop", short_rop(kDefaultSeed)},
        std::pair{"darp", short_darp(kDefaultSeed)}}) {
    const TracedRun tr = traced_run(spec);
    const std::string what =
        std::string("traced and untraced ") + name + " runs share a digest";
    expect(stats_digest(tr.stats_json) == digest_of(spec), what.c_str());
  }

  // (2) The digest ignores host time but sees every counter.
  {
    sim::ExperimentResult r = sim::run_experiment(short_rop(kDefaultSeed));
    const std::uint64_t d = stats_digest(r.to_json());
    r.wall_seconds += 12.5;
    expect(stats_digest(r.to_json()) == d, "digest ignores wall_seconds");
    r.stats.counter("mem.reads").inc();
    expect(stats_digest(r.to_json()) != d, "digest changes with a counter");
    expect(stats_digest("{not json") == 0, "digest rejects malformed JSON");
  }

  // (3) The seed reaches the simulated streams.
  expect(digest_of(short_rop(kDefaultSeed)) != digest_of(short_rop(kHeldOutSeed)),
         "a different seed changes the digest");

  // (4) ROP hooks fire on a ROP run only.
  {
    const TracedRun rop_run = traced_run(short_rop(kDefaultSeed));
    const TracedRun darp_run = traced_run(short_darp(kDefaultSeed));
    std::uint64_t rop_calls = 0;
    std::uint64_t darp_calls = 0;
    for (std::size_t h = 0; h < kHookCount; ++h) {
      rop_calls += rop_run.hook_calls[h];
      darp_calls += darp_run.hook_calls[h];
    }
    expect(rop_calls > 0, "rop.* calls are counted on a ROP run");
    expect(darp_calls == 0, "rop.* calls are zero on a DARP run");
    expect(darp_run.ticks > 0, "mem ticks are counted on a DARP run");
  }

  std::printf("%s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
