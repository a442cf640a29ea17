// Cycle-accounting attribution: the CPI stack must be a *disjoint, total*
// decomposition of every core's cycles — categories sum bit-exactly to the
// cycle count on every scheme, every simulation loop, and every channel
// count — and the derived exports (stats JSON attribution block, progress
// heartbeat JSONL) must carry it faithfully.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "telemetry/attribution.h"

namespace rop::sim {
namespace {

void expect_stack_total(const ExperimentResult& r, const std::string& what) {
  ASSERT_FALSE(r.run.cores.empty()) << what;
  for (std::size_t c = 0; c < r.run.cores.size(); ++c) {
    const cpu::CoreResult& core = r.run.cores[c];
    EXPECT_EQ(core.cpi_stack_sum(), core.cpu_cycles)
        << what << " core " << c << ": CPI stack does not cover the cycles";
  }
}

constexpr MemoryMode kAllModes[] = {
    MemoryMode::kBaseline, MemoryMode::kRop,      MemoryMode::kElastic,
    MemoryMode::kPausing,  MemoryMode::kPerBank,  MemoryMode::kDarp,
    MemoryMode::kSarp,     MemoryMode::kHira,     MemoryMode::kNoRefresh,
};

TEST(CpiStack, SumsToCyclesOnEveryModeAndLoop) {
  constexpr cpu::LoopMode kLoops[] = {cpu::LoopMode::kNaive,
                                      cpu::LoopMode::kEventDriven};
  for (const MemoryMode mode : kAllModes) {
    std::vector<ExperimentResult> per_loop;
    for (const cpu::LoopMode loop : kLoops) {
      ExperimentSpec spec = single_core_spec("libquantum", mode);
      spec.instructions_per_core = 120'000;
      spec.loop = loop;
      spec.check = true;  // SimChecker audits the invariant too
      per_loop.push_back(run_experiment(spec));
      expect_stack_total(per_loop.back(), "mode/loop run");
      EXPECT_EQ(per_loop.back().checker_violations, 0u);
    }
    // The decomposition itself (not just the total) is loop-invariant.
    for (std::size_t l = 1; l < per_loop.size(); ++l) {
      ASSERT_EQ(per_loop[l].run.cores.size(), per_loop[0].run.cores.size());
      for (std::size_t c = 0; c < per_loop[l].run.cores.size(); ++c) {
        EXPECT_EQ(per_loop[l].run.cores[c].cpi.cycles,
                  per_loop[0].run.cores[c].cpi.cycles)
            << "loop " << l << " core " << c;
      }
    }
  }
}

// Named after the retired shard counts; it now covers the channel counts.
TEST(CpiStack, IsShardInvariant) {
  for (const std::uint32_t channels : {1u, 4u}) {
    ExperimentSpec spec = single_core_spec("omnetpp", MemoryMode::kRop);
    spec.instructions_per_core = 120'000;
    spec.channels = channels;
    const ExperimentResult r = run_experiment(spec);
    expect_stack_total(r, "multi-channel run");
  }
}

TEST(CpiStack, MulticoreRefreshStallsAreAttributed) {
  ExperimentSpec spec = multi_core_spec(1, MemoryMode::kBaseline,
                                        /*rank_partition=*/false);
  spec.instructions_per_core = 150'000;
  const ExperimentResult r = run_experiment(spec);
  expect_stack_total(r, "multicore baseline");
  std::uint64_t refresh = 0;
  std::uint64_t retire = 0;
  for (const cpu::CoreResult& c : r.run.cores) {
    using telemetry::CpiCategory;
    refresh += c.cpi[CpiCategory::kRefreshRank] +
               c.cpi[CpiCategory::kRefreshBank] +
               c.cpi[CpiCategory::kRefreshSubarray] +
               c.cpi[CpiCategory::kRefreshPause];
    retire += c.cpi[CpiCategory::kRetire];
  }
  EXPECT_GT(retire, 0u);
  // Rank-wide REF on a contended 4-core mix must surface as refresh stall.
  EXPECT_GT(refresh, 0u);
}

TEST(CpiStack, RegistryMirrorsMatchCoreResults) {
  ExperimentSpec spec = single_core_spec("lbm", MemoryMode::kRop);
  spec.instructions_per_core = 120'000;
  const ExperimentResult r = run_experiment(spec);
  for (std::size_t c = 0; c < r.run.cores.size(); ++c) {
    for (std::size_t k = 0; k < telemetry::kCpiCategoryCount; ++k) {
      const std::string name = "core" + std::to_string(c) + ".cpi." +
                               telemetry::kCpiCategoryKeys[k];
      EXPECT_EQ(r.stats.counter_value(name), r.run.cores[c].cpi.cycles[k])
          << name;
    }
  }
}

TEST(AttributionJson, CarriesStacksAndRequestTotals) {
  ExperimentSpec spec = single_core_spec("libquantum", MemoryMode::kBaseline);
  spec.instructions_per_core = 120'000;
  const ExperimentResult r = run_experiment(spec);
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"schema_version\":4"), std::string::npos);
  EXPECT_NE(json.find("\"attribution\""), std::string::npos);
  EXPECT_NE(json.find("\"cpu_ratio\""), std::string::npos);
  EXPECT_NE(json.find("\"cpi_stack\""), std::string::npos);
  for (const char* key : telemetry::kCpiCategoryKeys) {
    std::string quoted = "\"";
    quoted += key;
    quoted += '"';
    EXPECT_NE(json.find(quoted), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"rop_recovered_cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"blocked_rank_cycles\""), std::string::npos);
  EXPECT_GT(r.cpu_ratio, 0u);
}

TEST(ProgressHeartbeat, WritesRunJsonl) {
  const std::string path =
      ::testing::TempDir() + "rop_progress_run.jsonl";
  std::remove(path.c_str());
  ExperimentSpec spec = single_core_spec("libquantum", MemoryMode::kRop);
  spec.instructions_per_core = 120'000;
  spec.progress_file = path;
  spec.progress_every = 10'000;  // several beats within the short run
  const ExperimentResult r = run_experiment(spec);
  expect_stack_total(r, "progress run");

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 2u) << "expected periodic beats plus a final one";
  for (const std::string& line : lines) {
    EXPECT_EQ(line.rfind("{\"kind\":\"run\"", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}') << line;
  }
  EXPECT_NE(lines.back().find("\"done\":true"), std::string::npos);
  // Progress is an operational side channel: the simulated outcome is
  // byte-identical with and without it.
  ExperimentSpec plain = spec;
  plain.progress_file.clear();
  const ExperimentResult base = run_experiment(plain);
  EXPECT_EQ(base.stats.report(), r.stats.report());
  std::remove(path.c_str());
}

TEST(ProgressHeartbeat, BadPathIsInertNotFatal) {
  telemetry::ProgressWriter w("/nonexistent-dir/progress.jsonl");
  EXPECT_FALSE(w.ok());
  telemetry::ProgressWriter::RunHeartbeat beat;
  w.write_run(beat);  // must not crash
  ExperimentSpec spec = single_core_spec("libquantum", MemoryMode::kBaseline);
  spec.instructions_per_core = 60'000;
  spec.progress_file = "/nonexistent-dir/progress.jsonl";
  const ExperimentResult r = run_experiment(spec);
  expect_stack_total(r, "bad progress path");
}

}  // namespace
}  // namespace rop::sim
