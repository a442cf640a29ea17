// The single spec validator and the trace-file workload source.
//
// validate() is the one place that says whether an ExperimentSpec can run;
// ropsim, the campaign expander and run_experiment all call it. The table
// below pins every rule with a spec it rejects and a neighbouring spec it
// accepts, so a rule can neither vanish nor widen unnoticed.
//
// The trace-file source is checked against the synthetic generator it
// replaces: a run over captured records must be byte-identical to the run
// over the live profile.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.h"
#include "workload/synthetic.h"
#include "workload/trace_io.h"

namespace rop::sim {
namespace {

namespace fs = std::filesystem;

struct Row {
  const char* name;
  std::function<void(ExperimentSpec&)> edit;
  /// Substring of the rejection reason; nullptr = the spec is valid.
  const char* rejects;
};

void trace_files(ExperimentSpec& s) { s.trace_files = {"app.trace"}; }
void planned(ExperimentSpec& s) {
  s.sampling.enabled = true;
  s.sampling.jobs = 2;
}

const std::vector<Row>& rows() {
  static const std::vector<Row> kRows = {
      {"default single-core spec", [](ExperimentSpec&) {}, nullptr},
      {"no cores", [](ExperimentSpec& s) { s.benchmarks.clear(); },
       "no cores"},
      {"unknown benchmark", [](ExperimentSpec& s) { s.benchmarks = {"mcf"}; },
       "unknown benchmark: mcf"},
      {"mix names are expanded before the spec",
       [](ExperimentSpec& s) { s.benchmarks = {"wl1"}; }, "unknown benchmark"},
      {"every Table I profile",
       [](ExperimentSpec& s) {
         s.benchmarks.assign(workload::kBenchmarkNames.begin(),
                             workload::kBenchmarkNames.end());
       },
       nullptr},
      {"trace files label their cores freely",
       [](ExperimentSpec& s) {
         s.benchmarks = {"app.trace"};
         trace_files(s);
       },
       nullptr},
      {"one trace file per core",
       [](ExperimentSpec& s) {
         s.benchmarks = {"a", "b"};
         trace_files(s);
       },
       "one file per core"},
      {"trace file with channels > 1",
       [](ExperimentSpec& s) {
         trace_files(s);
         s.channels = 2;
       },
       "trace-file workload"},
      {"trace file with shards (ignored)",
       [](ExperimentSpec& s) {
         trace_files(s);
         s.shard_channels = 1;
       },
       nullptr},
      {"trace file with a snapshot",
       [](ExperimentSpec& s) {
         trace_files(s);
         s.snapshot.out = "x.snap";
       },
       "trace-file workload"},
      {"trace file with sampling",
       [](ExperimentSpec& s) {
         trace_files(s);
         s.sampling.enabled = true;
       },
       "trace-file workload"},
      {"trace file with a heartbeat",
       [](ExperimentSpec& s) {
         trace_files(s);
         s.progress_file = "p.jsonl";
       },
       "trace-file workload"},
      {"trace file with the naive loop and the checker",
       [](ExperimentSpec& s) {
         trace_files(s);
         s.loop = cpu::LoopMode::kNaive;
         s.check = true;
       },
       nullptr},
      {"instructions whose cycle cap would wrap",
       [](ExperimentSpec& s) {
         s.instructions_per_core = kMaxInstructionsPerCore + 1;
       },
       "instructions_per_core must be at most 72057594037927935"},
      {"the most instructions the cycle cap holds",
       [](ExperimentSpec& s) {
         s.instructions_per_core = kMaxInstructionsPerCore;
       },
       nullptr},
      {"zero ranks", [](ExperimentSpec& s) { s.ranks = 0; }, "ranks"},
      {"33 ranks", [](ExperimentSpec& s) { s.ranks = 33; }, "ranks"},
      {"32 ranks", [](ExperimentSpec& s) { s.ranks = 32; }, nullptr},
      {"zero channels", [](ExperimentSpec& s) { s.channels = 0; },
       "channels"},
      {"3 MiB LLC", [](ExperimentSpec& s) { s.llc_bytes = 3ull << 20; },
       "power of two"},
      {"512 KiB LLC", [](ExperimentSpec& s) { s.llc_bytes = 512ull << 10; },
       "at least 1 MiB"},
      {"1 MiB LLC", [](ExperimentSpec& s) { s.llc_bytes = 1ull << 20; },
       nullptr},
      {"naive loop with channels > 1",
       [](ExperimentSpec& s) {
         s.loop = cpu::LoopMode::kNaive;
         s.channels = 2;
       },
       nullptr},
      {"naive loop with shards (ignored)",
       [](ExperimentSpec& s) {
         s.loop = cpu::LoopMode::kNaive;
         s.shard_channels = 1;
       },
       nullptr},
      {"naive loop with a snapshot",
       [](ExperimentSpec& s) {
         s.loop = cpu::LoopMode::kNaive;
         s.snapshot.in = "x.snap";
       },
       "event loop"},
      {"naive loop with sampling",
       [](ExperimentSpec& s) {
         s.loop = cpu::LoopMode::kNaive;
         s.sampling.enabled = true;
       },
       "event loop"},
      {"naive loop with a heartbeat and epochs",
       [](ExperimentSpec& s) {
         s.loop = cpu::LoopMode::kNaive;
         s.progress_file = "p.jsonl";
         s.telemetry.sampler.epoch_cycles = 1000;
       },
       nullptr},
      {"event loop on 4 channels, 4 shards",
       [](ExperimentSpec& s) {
         s.channels = 4;
         s.shard_channels = 4;
       },
       nullptr},
      {"more shards than channels (clamped)",
       [](ExperimentSpec& s) { s.shard_channels = 8; }, nullptr},
      {"event trace on 2 channels",
       [](ExperimentSpec& s) {
         s.channels = 2;
         s.telemetry.trace.categories = telemetry::kCatAll;
       },
       "one channel"},
      {"event trace on 1 channel with shards (ignored)",
       [](ExperimentSpec& s) {
         s.shard_channels = 2;
         s.telemetry.trace.categories = telemetry::kCatAll;
       },
       nullptr},
      {"event trace across a snapshot",
       [](ExperimentSpec& s) {
         s.telemetry.trace.categories = telemetry::kCatAll;
         s.snapshot.out = "x.snap";
         s.snapshot.stop_at = 1001;
       },
       nullptr},
      {"stop_at without out",
       [](ExperimentSpec& s) { s.snapshot.stop_at = 1001; }, "snapshot.out"},
      {"every without out", [](ExperimentSpec& s) { s.snapshot.every = 1000; },
       "snapshot.out"},
      {"periodic checkpoints",
       [](ExperimentSpec& s) {
         s.snapshot.out = "x.snap";
         s.snapshot.every = 1000;
       },
       nullptr},
      {"exact spec with default jobs",
       [](ExperimentSpec& s) { s.sampling = SamplingSpec{}; }, nullptr},
      {"sampling with jobs 0",
       [](ExperimentSpec& s) {
         s.sampling.enabled = true;
         s.sampling.jobs = 0;
       },
       "sampling.jobs"},
      {"sampling with no warmup",
       [](ExperimentSpec& s) {
         s.sampling.enabled = true;
         s.sampling.warmup_cycles = 0;
       },
       nullptr},
      {"sampling with a zero-cycle window",
       [](ExperimentSpec& s) {
         s.sampling.enabled = true;
         s.sampling.detail_cycles = 0;
       },
       "sampling.detail_cycles"},
      {"sampling with a one-cycle window",
       [](ExperimentSpec& s) {
         s.sampling.enabled = true;
         s.sampling.detail_cycles = 1;
       },
       nullptr},
      {"sampling with min_windows 0",
       [](ExperimentSpec& s) {
         s.sampling.enabled = true;
         s.sampling.min_windows = 0;
       },
       "sampling.min_windows"},
      {"sampling with min_windows 1",
       [](ExperimentSpec& s) {
         s.sampling.enabled = true;
         s.sampling.min_windows = 1;
       },
       "sampling.min_windows"},
      {"sampling with min_windows 2",
       [](ExperimentSpec& s) {
         s.sampling.enabled = true;
         s.sampling.min_windows = 2;
       },
       nullptr},
      {"stratified planned sampling",
       [](ExperimentSpec& s) {
         planned(s);
         s.sampling.strata = 4;
       },
       nullptr},
      {"sampling with a snapshot",
       [](ExperimentSpec& s) {
         s.sampling.enabled = true;
         s.snapshot.in = "x.snap";
       },
       "mutually exclusive"},
      {"sampling with shards (ignored)",
       [](ExperimentSpec& s) {
         s.sampling.enabled = true;
         s.channels = 2;
         s.shard_channels = 2;
       },
       nullptr},
      {"sampling on 2 channels",
       [](ExperimentSpec& s) {
         s.sampling.enabled = true;
         s.channels = 2;
       },
       nullptr},
      {"planned sampling with epochs",
       [](ExperimentSpec& s) {
         planned(s);
         s.telemetry.sampler.epoch_cycles = 1000;
       },
       "telemetry"},
      {"planned sampling with an event trace",
       [](ExperimentSpec& s) {
         planned(s);
         s.telemetry.trace.categories = telemetry::kCatCmds;
       },
       "telemetry"},
      {"sampling with default jobs and epochs",
       [](ExperimentSpec& s) {
         s.sampling.enabled = true;
         s.telemetry.sampler.epoch_cycles = 1000;
       },
       "telemetry"},
  };
  return kRows;
}

TEST(Validate, EveryRuleRejectsItsCaseAndAcceptsItsNeighbour) {
  for (const Row& row : rows()) {
    SCOPED_TRACE(row.name);
    ExperimentSpec spec = single_core_spec("lbm", MemoryMode::kRop);
    row.edit(spec);
    const std::optional<std::string> reason = validate(spec);
    if (row.rejects == nullptr) {
      EXPECT_FALSE(reason.has_value()) << *reason;
    } else {
      ASSERT_TRUE(reason.has_value());
      EXPECT_NE(reason->find(row.rejects), std::string::npos) << *reason;
    }
  }
}

TEST(Validate, CannedSpecsAreValid) {
  for (const MemoryMode mode : kAllMemoryModes) {
    EXPECT_FALSE(validate(single_core_spec("gcc", mode)).has_value());
    for (std::uint32_t wl = 1; wl <= workload::kNumWorkloadMixes; ++wl) {
      EXPECT_FALSE(validate(multi_core_spec(wl, mode, true)).has_value());
    }
  }
}

// ---------------------------------------------------------------------------
// Trace-file workload source.

std::string json_of(ExperimentResult r) {
  r.wall_seconds = 0.0;
  return r.to_json();
}

/// Capture each core's synthetic stream (seeded as build_sim_instance seeds
/// it) into its own file, and point a copy of `spec` at the files.
ExperimentSpec captured(const ExperimentSpec& spec, const fs::path& dir,
                        std::size_t records) {
  ExperimentSpec replay = spec;
  for (std::size_t c = 0; c < spec.benchmarks.size(); ++c) {
    workload::SyntheticTrace live(
        workload::spec_profile(spec.benchmarks[c], spec.seed_salt + c));
    const std::string path = (dir / ("core" + std::to_string(c) + ".trace"))
                                 .string();
    workload::write_trace_file(path, workload::capture(live, records));
    replay.trace_files.push_back(path);
  }
  return replay;
}

TEST(TraceFileSource, CapturedProfileReplaysByteIdentically) {
  const fs::path dir = fs::path(testing::TempDir()) / "rop_trace_oracle";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ExperimentSpec one = single_core_spec("gcc", MemoryMode::kRop);
  one.instructions_per_core = 300'000;
  one.telemetry.sampler.epoch_cycles = 10'000;
  ExperimentSpec four = multi_core_spec(1, MemoryMode::kDarp, true);
  four.instructions_per_core = 60'000;
  four.check = true;
  for (const ExperimentSpec& spec : {one, four}) {
    SCOPED_TRACE(testing::Message() << spec.benchmarks.size() << " cores");
    // More records than any core consumes: a wrapped replay would diverge.
    const ExperimentSpec replay = captured(spec, dir, 400'000);
    ASSERT_FALSE(validate(replay).has_value());
    const ExperimentResult live = run_experiment(spec);
    const ExperimentResult file = run_experiment(replay);
    ASSERT_TRUE(file.error.empty()) << file.error;
    EXPECT_EQ(json_of(live), json_of(file));
  }
  fs::remove_all(dir);
}

TEST(TraceFileSource, UnreadableFilesComeBackAsErrors) {
  const fs::path dir = fs::path(testing::TempDir()) / "rop_trace_errors";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto write = [&](const char* name, const char* text) {
    const std::string path = (dir / name).string();
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(text, f);
    std::fclose(f);
    return path;
  };
  const std::pair<std::string, const char*> cases[] = {
      {(dir / "missing.trace").string(), "cannot open"},
      {write("malformed.trace", "12 X 0x40\n"), "malformed"},
      {write("empty.trace", "# no records\n"), "no records"},
  };
  for (const auto& [path, why] : cases) {
    SCOPED_TRACE(path);
    ExperimentSpec spec = single_core_spec(path, MemoryMode::kBaseline);
    spec.trace_files = {path};
    const ExperimentResult r = run_experiment(spec);
    EXPECT_NE(r.error.find(why), std::string::npos) << r.error;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace rop::sim
