// Golden stats digests: an oracle that does not come from the same commit.
//
// Every other determinism suite compares one loop against another built
// from the same sources, so a change that alters a refresh decision the
// same way in both loops passes all of them. These digests were captured
// once from a known-good build and are never regenerated by a refactor:
// a refactor that claims byte-identical stats must reproduce them. A
// change that alters simulated behaviour on purpose updates the table and
// says why.
//
// The digest covers the observable output the shard-determinism suite
// compares (the stats registry report, cycle counts, per-core results,
// energy, refresh and ROP figures, blocking windows); wall-clock fields
// and checker tick counts are excluded.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "common/fnv1a.h"
#include "sim/campaign.h"
#include "sim/experiment.h"
#include "sim/sim_instance.h"
#include "sim/snapshot.h"

namespace rop::sim {
namespace {

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// The fields expect_identical (test_shard_determinism.cpp) compares,
/// rendered exactly (doubles in hexfloat).
std::string observable_dump(const ExperimentResult& r) {
  std::string s = r.stats.report();
  s += "cpu_cycles " + std::to_string(r.run.cpu_cycles) + '\n';
  s += "mem_cycles " + std::to_string(r.run.mem_cycles) + '\n';
  s += "hit_cycle_limit " + std::to_string(r.run.hit_cycle_limit) + '\n';
  for (const cpu::CoreResult& c : r.run.cores) {
    s += "core " + std::to_string(c.instructions) + ' ' +
         std::to_string(c.cpu_cycles) + ' ' + hex(c.ipc) + '\n';
  }
  s += "energy " + hex(r.total_energy_mj()) + ' ' + hex(r.energy.refresh_mj) +
       '\n';
  s += "refreshes " + std::to_string(r.refreshes) + '\n';
  s += "rop " + hex(r.sram_hit_rate) + ' ' + hex(r.lambda) + ' ' +
       hex(r.beta) + '\n';
  for (std::size_t k = 0; k < r.nonblocking_fraction.size(); ++k) {
    s += "window " + hex(r.nonblocking_fraction[k]) + ' ' +
         std::to_string(r.max_blocked[k]) + '\n';
  }
  s += "violations " + std::to_string(r.checker_violations) + '\n';
  return s;
}

std::string digest_hex(std::uint64_t d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(d));
  return buf;
}

struct Golden {
  MemoryMode mode;
  dram::RefreshMode refresh;
  const char* digest;
};

// lbm, 1 core, 2M instructions, exact event loop.
constexpr Golden kLbmGolden[] = {
    {MemoryMode::kBaseline, dram::RefreshMode::k1x, "24eb1446a598320a"},
    {MemoryMode::kBaseline, dram::RefreshMode::k2x, "e8e64a1b524acd5a"},
    {MemoryMode::kBaseline, dram::RefreshMode::k4x, "24a2211961aad005"},
    {MemoryMode::kNoRefresh, dram::RefreshMode::k1x, "03d0425d667bf727"},
    {MemoryMode::kNoRefresh, dram::RefreshMode::k2x, "03d0425d667bf727"},
    {MemoryMode::kNoRefresh, dram::RefreshMode::k4x, "03d0425d667bf727"},
    {MemoryMode::kRop, dram::RefreshMode::k1x, "af40f6e20072f31e"},
    {MemoryMode::kRop, dram::RefreshMode::k2x, "aee7cbf8c73b29fd"},
    {MemoryMode::kRop, dram::RefreshMode::k4x, "977745c1f38f329c"},
    {MemoryMode::kElastic, dram::RefreshMode::k1x, "6fb081d2fa99ad1f"},
    {MemoryMode::kElastic, dram::RefreshMode::k2x, "b8a7325da153c836"},
    {MemoryMode::kElastic, dram::RefreshMode::k4x, "29bcc2c8595b5117"},
    {MemoryMode::kPausing, dram::RefreshMode::k1x, "6530818181e60bab"},
    {MemoryMode::kPausing, dram::RefreshMode::k2x, "ac538d44554a74f6"},
    {MemoryMode::kPausing, dram::RefreshMode::k4x, "08bf033c53edd1fd"},
    {MemoryMode::kPerBank, dram::RefreshMode::k1x, "7fc188e6fde6555c"},
    {MemoryMode::kPerBank, dram::RefreshMode::k2x, "012925631f7a3602"},
    {MemoryMode::kPerBank, dram::RefreshMode::k4x, "021e642335834538"},
    {MemoryMode::kDarp, dram::RefreshMode::k1x, "76399fc5620d2ed7"},
    {MemoryMode::kDarp, dram::RefreshMode::k2x, "31ff1375de3f42c8"},
    {MemoryMode::kDarp, dram::RefreshMode::k4x, "08eda4e3e8fc784c"},
    {MemoryMode::kSarp, dram::RefreshMode::k1x, "1158de6daa2d1425"},
    {MemoryMode::kSarp, dram::RefreshMode::k2x, "3ee7011e7b722208"},
    {MemoryMode::kSarp, dram::RefreshMode::k4x, "87ee2d1e53a1cc2d"},
    {MemoryMode::kHira, dram::RefreshMode::k1x, "913eff80c4f63661"},
    {MemoryMode::kHira, dram::RefreshMode::k2x, "21ba53ebaada9efb"},
    {MemoryMode::kHira, dram::RefreshMode::k4x, "f8cce56093523cfa"},
};

std::string golden_name(const Golden& g) {
  return std::string(memory_mode_name(g.mode)) + "_" +
         refresh_mode_name(g.refresh);
}

// Names the parameter in test listings (the default prints its bytes,
// pointer included, which differ from run to run).
void PrintTo(const Golden& g, std::ostream* os) { *os << golden_name(g); }

class GoldenDigest : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenDigest, LbmMatchesCapturedDigest) {
  const Golden& g = GetParam();
  ExperimentSpec spec = single_core_spec("lbm", g.mode);
  spec.refresh_mode = g.refresh;
  spec.instructions_per_core = 2'000'000;
  const ExperimentResult r = run_experiment(spec);
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(digest_hex(fnv1a(observable_dump(r))), g.digest);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, GoldenDigest, ::testing::ValuesIn(kLbmGolden),
    [](const ::testing::TestParamInfo<Golden>& param_info) {
      std::string name = golden_name(param_info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(GoldenDigestMultiChannel, Wl1DarpMatchesCapturedDigest) {
  // Four cores, two channels of two ranks: bank-unit refresh across
  // channels advanced on their own event clocks.
  ExperimentSpec spec = multi_core_spec(1, MemoryMode::kDarp, false);
  spec.ranks = 2;
  spec.channels = 2;
  spec.instructions_per_core = 200'000;
  const ExperimentResult r = run_experiment(spec);
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(digest_hex(fnv1a(observable_dump(r))), "39c78a9b01ec4cc7");
}

/// The snapshot buffer of `spec` cut at CPU cycle `stop_cpu`: every io()
/// field of every section, in order. Pinning its digest catches a refactor
/// that reorders, drops or re-encodes a serialized field, which no stats
/// digest sees.
std::string snapshot_at(const ExperimentSpec& spec, std::uint64_t stop_cpu) {
  SimInstance inst = build_sim_instance(spec);
  inst.system->begin_run(spec.instructions_per_core, spec.max_cpu_cycles);
  EXPECT_FALSE(inst.system->advance_until(stop_cpu));
  return save_snapshot_buffer(inst.snapshot_context(),
                              config_fingerprint(spec_canonical(spec)));
}

/// `ropsim`'s defaults: 10M instructions per core, capped cycles, a
/// 2 MiB LLC.
ExperimentSpec at_ropsim_defaults(ExperimentSpec spec) {
  spec.llc_bytes = 2ull << 20;
  spec.instructions_per_core = 10'000'000;
  spec.max_cpu_cycles =
      spec.instructions_per_core * kCpuCyclesPerInstructionCap;
  return spec;
}

TEST(GoldenDigestSnapshot, LbmRopBufferAt40001) {
  // `ropsim --benchmark lbm --mode rop --snapshot-stop-at 40001` writes
  // these bytes plus an 8-byte checksum, which is this digest.
  const std::string buf = snapshot_at(
      at_ropsim_defaults(single_core_spec("lbm", MemoryMode::kRop)), 40'001);
  EXPECT_EQ(buf.size(), 346'688u);
  EXPECT_EQ(digest_hex(fnv1a(buf)), "712a7b85717b55e4");
}

TEST(GoldenDigestSnapshot, Wl1Darp4ChannelBufferAt120001) {
  // `ropsim --benchmark wl1 --mode darp --channels 4
  // --snapshot-stop-at 120001`: four cores, four channels of four ranks
  // each.
  ExperimentSpec spec = multi_core_spec(1, MemoryMode::kDarp, false);
  spec.channels = 4;
  const std::string buf = snapshot_at(at_ropsim_defaults(spec), 120'001);
  EXPECT_EQ(buf.size(), 357'641u);
  EXPECT_EQ(digest_hex(fnv1a(buf)), "bf81f2637e4d0a76");
}

// The two buffers above carry only zero pause and subarray refresh-blocking
// accumulators. These cuts were chosen so that queued reads carry nonzero
// ones (four reads blocked by a pausing segment at 26001; one read blocked
// by a subarray refresh at 17001), so a reordered or re-encoded
// per-cause accumulator changes their bytes.
TEST(GoldenDigestSnapshot, LbmPausingBufferAt26001) {
  // `ropsim --benchmark lbm --mode pausing --snapshot-stop-at 26001`.
  const std::string buf = snapshot_at(
      at_ropsim_defaults(single_core_spec("lbm", MemoryMode::kPausing)),
      26'001);
  EXPECT_EQ(buf.size(), 341'819u);
  EXPECT_EQ(digest_hex(fnv1a(buf)), "a026d35ef67c03f2");
}

TEST(GoldenDigestSnapshot, LbmSarpBufferAt17001) {
  // `ropsim --benchmark lbm --mode sarp --snapshot-stop-at 17001`.
  const std::string buf = snapshot_at(
      at_ropsim_defaults(single_core_spec("lbm", MemoryMode::kSarp)),
      17'001);
  EXPECT_EQ(buf.size(), 342'269u);
  EXPECT_EQ(digest_hex(fnv1a(buf)), "7eed02fcf9ed8597");
}

TEST(GoldenDigestCampaign, MergedDocumentMatchesCapturedDigest) {
  // The whole merged.json of a fixed 12-cell campaign: per-cell rows, the
  // registry fold under "aggregate" (counters, exact scalar sums,
  // histograms) and the concatenated epoch series (epoch_cycles 2000 gives
  // every cell several epochs). Wall-clock fields never reach this
  // document, so the digest covers all of it.
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "rop_golden_campaign";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream spec(dir + "/spec.json", std::ios::binary);
    spec << R"({
  "name": "golden",
  "instructions_per_core": 50000,
  "epoch_cycles": 2000,
  "axes": {
    "benchmark": ["lbm", "wl1"],
    "mode": ["baseline", "rop", "darp"],
    "refresh": ["1x", "4x"]
  }
}
)";
  }
  CampaignOptions opts;
  opts.spec_path = dir + "/spec.json";
  opts.out_dir = dir + "/out";
  opts.jobs = 2;
  opts.progress = false;
  std::string err;
  const auto summary = run_campaign(opts, &err);
  ASSERT_TRUE(summary.has_value()) << err;
  ASSERT_TRUE(summary->complete);
  std::ifstream in(summary->merged_path, std::ios::binary);
  std::ostringstream merged;
  merged << in.rdbuf();
  EXPECT_EQ(digest_hex(fnv1a(merged.str())), "dd2daabf37e375b7");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace rop::sim
