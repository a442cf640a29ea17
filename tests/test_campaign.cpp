// Campaign engine: spec expansion, resumable checkpointing, and the
// deterministic merged document. The headline property: a campaign that is
// interrupted (stop_after) and resumed produces a merged.json byte-equal
// to an uninterrupted run of the same spec.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"
#include "common/snapshot_io.h"
#include "sim/campaign.h"
#include "sim/experiment.h"
#include "sim/snapshot.h"

namespace rop::sim {
namespace {

namespace fs = std::filesystem;

constexpr const char* kNineCellSpec = R"({
  "name": "smoke",
  "instructions_per_core": 15000,
  "axes": {
    "benchmark": ["libquantum"],
    "mode": ["baseline", "rop", "norefresh"],
    "refresh": ["1x", "2x", "4x"]
  }
})";

std::string write_spec(const std::string& dir, const std::string& text) {
  fs::create_directories(dir);
  const std::string path = dir + "/spec.json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

CampaignOptions quiet_options(const std::string& spec_path,
                              const std::string& out_dir) {
  CampaignOptions opts;
  opts.spec_path = spec_path;
  opts.out_dir = out_dir;
  opts.jobs = 1;  // deterministic completion order in tests
  opts.progress = false;
  return opts;
}

TEST(JsonParser, RoundTripsTheBasics) {
  std::string err;
  const auto doc = json::parse(
      R"({"a": 1, "b": [true, null, -2, 3.5], "s": "x\ny"})", &err);
  ASSERT_TRUE(doc.has_value()) << err;
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->find("a")->as_u64(), 1u);
  const json::Array& arr = doc->find("b")->as_array();
  ASSERT_EQ(arr.size(), 4u);
  EXPECT_TRUE(arr[0].as_bool());
  EXPECT_TRUE(arr[1].is_null());
  EXPECT_EQ(arr[2].as_i64(), -2);
  EXPECT_DOUBLE_EQ(arr[3].as_double(), 3.5);
  EXPECT_EQ(doc->find("s")->as_string(), "x\ny");

  // 64-bit counters survive exactly (the double view would round).
  const auto big = json::parse("18446744073709551615");
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(big->as_u64(), 18446744073709551615ull);
}

TEST(JsonParser, RejectsMalformedDocuments) {
  std::string err;
  EXPECT_FALSE(json::parse("{\"a\": }", &err).has_value());
  EXPECT_FALSE(json::parse("[1, 2", &err).has_value());
  EXPECT_FALSE(json::parse("{} trailing", &err).has_value());
  EXPECT_FALSE(err.empty());
}

TEST(CampaignExpand, NineCellGridWithStableIndices) {
  std::string err;
  const auto spec = json::parse(kNineCellSpec, &err);
  ASSERT_TRUE(spec.has_value()) << err;
  const auto cells = expand_campaign(*spec, &err);
  ASSERT_TRUE(cells.has_value()) << err;
  ASSERT_EQ(cells->size(), 9u);
  // Fixed axis order, last axis (refresh) fastest.
  EXPECT_EQ((*cells)[0].label, "libquantum/baseline/r1/1x/part0/ch1/llc2");
  EXPECT_EQ((*cells)[1].label, "libquantum/baseline/r1/2x/part0/ch1/llc2");
  EXPECT_EQ((*cells)[3].label, "libquantum/rop/r1/1x/part0/ch1/llc2");
  EXPECT_EQ((*cells)[8].label, "libquantum/norefresh/r1/4x/part0/ch1/llc2");
  for (std::size_t i = 0; i < cells->size(); ++i) {
    EXPECT_EQ((*cells)[i].index, i);
    EXPECT_EQ((*cells)[i].spec.instructions_per_core, 15'000u);
  }
  EXPECT_EQ((*cells)[3].spec.mode, MemoryMode::kRop);
  EXPECT_EQ((*cells)[1].spec.refresh_mode, dram::RefreshMode::k2x);
}

TEST(CampaignExpand, EverySchemeNameRoundTripsThroughACampaignSpec) {
  // The campaign loader and the ropsim CLI share one parser (sim/presets);
  // every canonical scheme name must round-trip name -> parse -> name and
  // expand to a campaign cell running that mode.
  std::string err;
  for (const MemoryMode mode : kAllMemoryModes) {
    const std::string name = memory_mode_name(mode);
    const auto parsed = parse_memory_mode(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, mode) << name;

    const auto spec = json::parse(
        R"({"axes": {"benchmark": ["libquantum"], "mode": [")" + name +
        R"("]}})", &err);
    ASSERT_TRUE(spec.has_value()) << err;
    const auto cells = expand_campaign(*spec, &err);
    ASSERT_TRUE(cells.has_value()) << name << ": " << err;
    ASSERT_EQ(cells->size(), 1u);
    EXPECT_EQ((*cells)[0].spec.mode, mode) << name;
  }
  // Compact aliases historically used in campaign specs stay valid.
  EXPECT_EQ(parse_memory_mode("norefresh"), MemoryMode::kNoRefresh);
  EXPECT_EQ(parse_memory_mode("perbank"), MemoryMode::kPerBank);
  EXPECT_FALSE(parse_memory_mode("warp-drive").has_value());
  // Refresh modes round-trip through the same shared parser.
  for (const dram::RefreshMode rm :
       {dram::RefreshMode::k1x, dram::RefreshMode::k2x,
        dram::RefreshMode::k4x}) {
    EXPECT_EQ(parse_refresh_mode(refresh_mode_name(rm)), rm);
  }
  EXPECT_FALSE(parse_refresh_mode("8x").has_value());
}

TEST(CampaignExpand, WorkloadMixesAndErrors) {
  std::string err;
  const auto mix = json::parse(
      R"({"axes": {"benchmark": ["wl1"], "channels": [2]}})");
  ASSERT_TRUE(mix.has_value());
  const auto cells = expand_campaign(*mix, &err);
  ASSERT_TRUE(cells.has_value()) << err;
  ASSERT_EQ(cells->size(), 1u);
  EXPECT_EQ((*cells)[0].spec.benchmarks.size(), 4u);  // 4-core mix
  EXPECT_EQ((*cells)[0].spec.channels, 2u);

  const auto bad = json::parse(R"({"axes": {"mode": ["warp-drive"]}})");
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(expand_campaign(*bad, &err).has_value());
  EXPECT_NE(err.find("warp-drive"), std::string::npos);
}

TEST(CampaignRun, InterruptedThenResumedMatchesUninterrupted) {
  const std::string base = ::testing::TempDir() + "rop_campaign_test";
  fs::remove_all(base);
  const std::string spec_path = write_spec(base, kNineCellSpec);

  // Reference: one uninterrupted pass.
  std::string err;
  const auto full =
      run_campaign(quiet_options(spec_path, base + "/full"), &err);
  ASSERT_TRUE(full.has_value()) << err;
  EXPECT_TRUE(full->complete);
  EXPECT_EQ(full->total_cells, 9u);
  EXPECT_EQ(full->ran_cells, 9u);
  EXPECT_EQ(full->skipped_cells, 0u);
  ASSERT_FALSE(full->merged_path.empty());

  // Interrupted: stop after 4 fresh completions — the campaign exits
  // incomplete exactly as if killed between two checkpoints.
  CampaignOptions interrupted = quiet_options(spec_path, base + "/resumed");
  interrupted.stop_after = 4;
  const auto partial = run_campaign(interrupted, &err);
  ASSERT_TRUE(partial.has_value()) << err;
  EXPECT_FALSE(partial->complete);
  EXPECT_EQ(partial->ran_cells, 4u);
  EXPECT_TRUE(fs::exists(base + "/resumed/manifest.json"));
  EXPECT_FALSE(fs::exists(base + "/resumed/merged.json"));

  // Resume: only the missing five cells run; the merge runs at the end.
  const auto resumed =
      run_campaign(quiet_options(spec_path, base + "/resumed"), &err);
  ASSERT_TRUE(resumed.has_value()) << err;
  EXPECT_TRUE(resumed->complete);
  EXPECT_EQ(resumed->skipped_cells, 4u);
  EXPECT_EQ(resumed->ran_cells, 5u);

  // The acceptance property: byte-identical merged documents.
  EXPECT_EQ(slurp(base + "/resumed/merged.json"),
            slurp(full->merged_path));

  // And the merged document is well-formed with the expected shape.
  const auto merged = json::parse(slurp(full->merged_path), &err);
  ASSERT_TRUE(merged.has_value()) << err;
  EXPECT_EQ(merged->find("cells")->as_u64(), 9u);
  EXPECT_EQ(merged->find("per_cell")->as_array().size(), 9u);
  const json::Value* agg = merged->find("aggregate");
  ASSERT_NE(agg, nullptr);
  EXPECT_GT(agg->find("counters")->as_object().size(), 0u);
  // No wall-clock leakage: byte-identity depends on it.
  EXPECT_EQ(slurp(full->merged_path).find("wall_seconds"),
            std::string::npos);

  fs::remove_all(base);
}

TEST(CampaignRun, MidCellKillResumesFromIntraCellSnapshot) {
  const std::string base = ::testing::TempDir() + "rop_campaign_midcell";
  fs::remove_all(base);
  // snapshot_every is below the natural cell length (lbm at 150k
  // instructions runs ~50k CPU cycles), so every cell leaves periodic
  // checkpoints behind while it runs.
  const std::string spec_text = R"({
    "name": "midkill",
    "instructions_per_core": 150000,
    "snapshot_every": 15000,
    "axes": {"benchmark": ["lbm"], "mode": ["baseline", "rop"]}
  })";
  const std::string spec_path = write_spec(base, spec_text);

  std::string err;
  const auto spec_doc = json::parse(spec_text, &err);
  ASSERT_TRUE(spec_doc.has_value()) << err;
  const auto cells = expand_campaign(*spec_doc, &err);
  ASSERT_TRUE(cells.has_value()) << err;
  ASSERT_EQ(cells->size(), 2u);
  EXPECT_EQ((*cells)[0].spec.snapshot.every, 15'000u);

  // Reference: one uninterrupted pass (checkpointing enabled there too —
  // periodic saves must not perturb results).
  const auto full =
      run_campaign(quiet_options(spec_path, base + "/full"), &err);
  ASSERT_TRUE(full.has_value()) << err;
  EXPECT_TRUE(full->complete);
  EXPECT_EQ(full->ran_cells, 2u);

  // Kill after the first cell: cell 0's JSON and the manifest land, cell 1
  // has not started.
  CampaignOptions killed = quiet_options(spec_path, base + "/resumed");
  killed.stop_after = 1;
  const auto partial = run_campaign(killed, &err);
  ASSERT_TRUE(partial.has_value()) << err;
  EXPECT_FALSE(partial->complete);
  EXPECT_EQ(partial->ran_cells, 1u);

  // Manufacture the debris a kill *mid-cell-1* leaves behind: run cell 1's
  // spec up to an arbitrary interior cycle so its periodic checkpoint sits
  // in the output directory with no cell JSON next to it.
  const std::string snap_path = base + "/resumed/cell_000001.snap";
  ExperimentSpec mid = (*cells)[1].spec;
  mid.snapshot.out = snap_path;
  mid.snapshot.stop_at = 25'001;
  const ExperimentResult cut = run_experiment(mid);
  EXPECT_TRUE(cut.interrupted);
  ASSERT_TRUE(fs::exists(snap_path));
  EXPECT_TRUE(snapshot_compatible(
      snap_path, config_fingerprint(spec_canonical((*cells)[1].spec))));

  // Resume: cell 0 is skipped via the manifest, cell 1 resumes from the
  // intra-cell checkpoint — and the merged document is still byte-equal
  // to the uninterrupted reference.
  const auto resumed =
      run_campaign(quiet_options(spec_path, base + "/resumed"), &err);
  ASSERT_TRUE(resumed.has_value()) << err;
  EXPECT_TRUE(resumed->complete);
  EXPECT_EQ(resumed->skipped_cells, 1u);
  EXPECT_EQ(resumed->ran_cells, 1u);
  EXPECT_EQ(slurp(base + "/resumed/merged.json"), slurp(full->merged_path));
  // The checkpoint is consumed: deleted once the cell JSON lands.
  EXPECT_FALSE(fs::exists(snap_path));

  // A stale checkpoint (wrong format / different sweep) is discarded, not
  // trusted: the cell runs fresh and the campaign still converges.
  const std::string stale_dir = base + "/stale";
  fs::create_directories(stale_dir);
  {
    std::ofstream bogus(stale_dir + "/cell_000000.snap", std::ios::binary);
    bogus << "not a snapshot";
  }
  const auto stale =
      run_campaign(quiet_options(spec_path, stale_dir), &err);
  ASSERT_TRUE(stale.has_value()) << err;
  EXPECT_TRUE(stale->complete);
  EXPECT_EQ(stale->ran_cells, 2u);
  EXPECT_EQ(slurp(stale_dir + "/merged.json"), slurp(full->merged_path));
  EXPECT_FALSE(fs::exists(stale_dir + "/cell_000000.snap"));

  fs::remove_all(base);
}

TEST(CampaignRun, PreviousFormatSnapshotIsDiscardedAndRecomputed) {
  // A checkpoint left by an older binary: right magic and fingerprint, but
  // the previous format version. The resume must not restore it (or
  // abort on it): the cell is recomputed from scratch and the stale file
  // is deleted.
  const std::string base = ::testing::TempDir() + "rop_campaign_oldsnap";
  fs::remove_all(base);
  const std::string spec_text = R"({
    "name": "oldsnap",
    "instructions_per_core": 150000,
    "snapshot_every": 15000,
    "axes": {"benchmark": ["lbm"], "mode": ["rop"]}
  })";
  const std::string spec_path = write_spec(base, spec_text);
  std::string err;
  const auto spec_doc = json::parse(spec_text, &err);
  ASSERT_TRUE(spec_doc.has_value()) << err;
  const auto cells = expand_campaign(*spec_doc, &err);
  ASSERT_TRUE(cells.has_value()) << err;
  ASSERT_EQ(cells->size(), 1u);

  const auto full =
      run_campaign(quiet_options(spec_path, base + "/full"), &err);
  ASSERT_TRUE(full.has_value()) << err;

  // A real mid-cell checkpoint, then its header's version word (after the
  // u64 magic) rewritten to an earlier format: v3 (which carried an unused
  // LLC image) and v2 (which stored the LLC as way structs).
  for (const std::uint32_t old_version :
       {kSnapshotFormatVersion - 1, kSnapshotFormatVersion - 2}) {
    SCOPED_TRACE("format v" + std::to_string(old_version));
    const std::string out_dir =
        base + "/resumed_v" + std::to_string(old_version);
    fs::create_directories(out_dir);
    const std::string snap_path = out_dir + "/cell_000000.snap";
    ExperimentSpec mid = (*cells)[0].spec;
    mid.snapshot.out = snap_path;
    mid.snapshot.stop_at = 25'001;
    ASSERT_TRUE(run_experiment(mid).interrupted);
    const std::uint64_t fp = config_fingerprint(spec_canonical(mid));
    ASSERT_TRUE(snapshot_compatible(snap_path, fp));
    {
      snap::Writer w;
      std::uint32_t version = old_version;
      w(version);
      std::fstream f(snap_path,
                     std::ios::binary | std::ios::in | std::ios::out);
      f.seekp(8);
      f.write(w.buffer().data(),
              static_cast<std::streamsize>(w.buffer().size()));
    }
    EXPECT_FALSE(snapshot_compatible(snap_path, fp));

    const auto resumed =
        run_campaign(quiet_options(spec_path, out_dir), &err);
    ASSERT_TRUE(resumed.has_value()) << err;
    EXPECT_TRUE(resumed->complete);
    EXPECT_EQ(resumed->ran_cells, 1u);
    EXPECT_EQ(slurp(out_dir + "/merged.json"), slurp(full->merged_path));
    EXPECT_FALSE(fs::exists(snap_path));
  }

  fs::remove_all(base);
}

TEST(CampaignRun, FingerprintMismatchStartsOver) {
  const std::string base = ::testing::TempDir() + "rop_campaign_fp";
  fs::remove_all(base);
  const std::string spec_path = write_spec(base, R"({
    "name": "tiny",
    "instructions_per_core": 10000,
    "axes": {"benchmark": ["lbm"], "mode": ["baseline", "norefresh"]}
  })");

  std::string err;
  const auto first = run_campaign(quiet_options(spec_path, base + "/out"),
                                  &err);
  ASSERT_TRUE(first.has_value()) << err;
  EXPECT_EQ(first->ran_cells, 2u);

  // Same grid, different spec bytes: the manifest must not be trusted.
  write_spec(base, R"({
    "name": "tiny2",
    "instructions_per_core": 10000,
    "axes": {"benchmark": ["lbm"], "mode": ["baseline", "norefresh"]}
  })");
  const auto second = run_campaign(quiet_options(spec_path, base + "/out"),
                                   &err);
  ASSERT_TRUE(second.has_value()) << err;
  EXPECT_EQ(second->skipped_cells, 0u);
  EXPECT_EQ(second->ran_cells, 2u);

  fs::remove_all(base);
}

TEST(CampaignRun, ReportsSpecErrors) {
  const std::string base = ::testing::TempDir() + "rop_campaign_err";
  fs::remove_all(base);
  std::string err;

  CampaignOptions missing = quiet_options(base + "/nope.json", base + "/o");
  EXPECT_FALSE(run_campaign(missing, &err).has_value());
  EXPECT_NE(err.find("cannot read"), std::string::npos);

  const std::string bad_path = write_spec(base, "{not json");
  EXPECT_FALSE(run_campaign(quiet_options(bad_path, base + "/o"), &err)
                   .has_value());
  EXPECT_NE(err.find("parse error"), std::string::npos);

  fs::remove_all(base);
}

}  // namespace
}  // namespace rop::sim
