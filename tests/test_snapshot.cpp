// Checkpoint/restore bit-identity: a run split at an arbitrary CPU cycle
// (snapshot written by the first half, restored by the second) must produce
// the byte-identical final stats document — every counter, Shewchuk scalar
// sum, histogram, epoch row, and run metric — as the unbroken run, across
// every refresh scheme, both fast loops, and every shard count. Aggregate
// identity here is strict: Controller::tick is not idempotent, so any
// state the snapshot missed (a queue index, an RNG word, a refresh phase,
// the loop cursor itself) diverges the tail of the run and shows up in the
// JSON diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/snapshot_io.h"
#include "sim/experiment.h"
#include "sim/snapshot.h"

namespace rop::sim {
namespace {

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "rop_" + name + ".snap";
}

// ---------------------------------------------------------------------------
// Satellite: Rng state capture. set_state must reproduce the exact stream,
// and the archive round-trip must preserve all four state words.

TEST(SnapshotRng, SetStateReproducesStream) {
  Rng a(12345);
  for (int i = 0; i < 100; ++i) a.next_u64();
  Rng b(999);  // different seed, then overwritten
  b.set_state(a.state());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "draw " << i;
  }
  EXPECT_EQ(a.next_double(), b.next_double());
  EXPECT_EQ(a.next_below(97), b.next_below(97));
}

TEST(SnapshotRng, ArchiveRoundTripPreservesStream) {
  Rng a(777);
  for (int i = 0; i < 33; ++i) a.next_u64();

  snap::Writer w;
  w.field(a);
  const std::string bytes = w.take();

  Rng b(1);
  snap::Reader r(bytes);
  r.field(b);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(a.state(), b.state());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "draw " << i;
  }
}

// ---------------------------------------------------------------------------
// Archive primitives: every container/scalar shape the simulator serializes.

struct Inner {
  std::uint32_t x = 0;
  double y = 0.0;
  template <class Ar>
  void io(Ar& ar) {
    ar(x, y);
  }
};

struct Everything {
  bool flag = false;
  std::uint8_t u8 = 0;
  std::int64_t i64 = 0;
  double d = 0.0;
  std::string s;
  std::optional<std::uint64_t> opt;
  std::vector<std::uint32_t> vec;
  std::vector<bool> bits;
  std::deque<std::uint16_t> dq;
  std::array<std::uint64_t, 3> arr{};
  std::vector<Inner> inners;
  template <class Ar>
  void io(Ar& ar) {
    ar(flag, u8, i64, d, s, opt, vec, bits, dq, arr, inners);
  }
};

TEST(SnapshotArchive, RoundTripsEveryFieldShape) {
  Everything a;
  a.flag = true;
  a.u8 = 200;
  a.i64 = -123456789012345ll;
  a.d = 3.14159265358979;
  a.s = "hello\0world";  // embedded NUL survives (length-prefixed)
  a.opt = 42;
  a.vec = {1, 2, 3, 0xFFFFFFFFu};
  a.bits = {true, false, true, true, false};
  a.dq = {7, 8, 9};
  a.arr = {10, 11, 12};
  a.inners = {{1, 1.5}, {2, -2.5}};

  snap::Writer w;
  w.field(a);
  const std::string bytes = w.take();

  Everything b;
  snap::Reader r(bytes);
  r.field(b);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(a.flag, b.flag);
  EXPECT_EQ(a.u8, b.u8);
  EXPECT_EQ(a.i64, b.i64);
  EXPECT_EQ(a.d, b.d);
  EXPECT_EQ(a.s, b.s);
  EXPECT_EQ(a.opt, b.opt);
  EXPECT_EQ(a.vec, b.vec);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.dq, b.dq);
  EXPECT_EQ(a.arr, b.arr);
  ASSERT_EQ(a.inners.size(), b.inners.size());
  for (std::size_t i = 0; i < a.inners.size(); ++i) {
    EXPECT_EQ(a.inners[i].x, b.inners[i].x);
    EXPECT_EQ(a.inners[i].y, b.inners[i].y);
  }
}

TEST(SnapshotArchive, EmptyBulkVectorsRoundTrip) {
  // Empty arithmetic vectors take the bulk-copy path with a null data();
  // they must cost only their length word and restore as empty, leaving
  // the fields around them intact.
  std::uint32_t before = 0xA5A5A5A5u;
  std::vector<std::uint64_t> u64s;
  std::vector<std::uint8_t> u8s;
  std::vector<double> doubles;
  std::uint32_t after = 0x5A5A5A5Au;
  snap::Writer w;
  w(before, u64s, u8s, doubles, after);
  const std::string bytes = w.take();
  EXPECT_EQ(bytes.size(), 4u + 3 * 8u + 4u);

  std::uint32_t before2 = 0;
  std::vector<std::uint64_t> u64s2 = {1, 2, 3};
  std::vector<std::uint8_t> u8s2 = {4};
  std::vector<double> doubles2;
  std::uint32_t after2 = 0;
  snap::Reader r(bytes);
  r(before2, u64s2, u8s2, doubles2, after2);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(before2, before);
  EXPECT_TRUE(u64s2.empty());
  EXPECT_TRUE(u8s2.empty());
  EXPECT_TRUE(doubles2.empty());
  EXPECT_EQ(after2, after);
}

TEST(SnapshotArchive, TruncatedBufferPoisonsReader) {
  snap::Writer w;
  std::uint64_t big = 0x1122334455667788ull;
  std::string s = "payload";
  w(big, s);
  const std::string bytes = w.take();

  const std::string truncated = bytes.substr(0, bytes.size() - 3);
  snap::Reader r(truncated);
  std::uint64_t big2 = 0;
  std::string s2;
  r(big2, s2);
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// Header validation: bad magic / version / fingerprint are rejected before
// any section is touched (so a null context is safe here).

TEST(SnapshotHeader, RejectsGarbageAndWrongFingerprint) {
  SnapshotContext ctx;  // all null: load must fail before sections
  std::string err;

  EXPECT_FALSE(load_snapshot_buffer("short", ctx, 1, &err));
  EXPECT_EQ(err, "not a ROPSNAP1 snapshot");

  // Correct magic + version, mismatched fingerprint.
  snap::Writer w;
  std::uint64_t magic = 0x3150414E53504F52ULL;
  std::uint32_t version = kSnapshotFormatVersion;
  std::uint64_t fp = 1234;
  w(magic, version, fp);
  EXPECT_FALSE(load_snapshot_buffer(w.take(), ctx, 5678, &err));
  EXPECT_EQ(err, "snapshot was taken under a different experiment spec");
}

TEST(SnapshotHeader, RejectsPreviousFormatVersion) {
  // Files of earlier versions (v3 carried an LLC image the run never used,
  // v2 stored the LLC as way structs) with the right magic and
  // fingerprint: load reports the version, and the header probe a resuming
  // campaign uses says "not compatible".
  for (const std::uint32_t old_version :
       {kSnapshotFormatVersion - 1, kSnapshotFormatVersion - 2}) {
    SCOPED_TRACE("format v" + std::to_string(old_version));
    SnapshotContext ctx;  // all null: load must fail before sections
    snap::Writer w;
    std::uint64_t magic = 0x3150414E53504F52ULL;
    std::uint32_t version = old_version;
    std::uint64_t fp = 1234;
    w(magic, version, fp);
    const std::string header = w.take();

    std::string err;
    EXPECT_FALSE(load_snapshot_buffer(header, ctx, fp, &err));
    EXPECT_EQ(err, "unsupported snapshot format version");

    const std::string path =
        tmp_path("v" + std::to_string(old_version) + "_header");
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os << header;
    }
    EXPECT_FALSE(snapshot_compatible(path, fp));
    std::remove(path.c_str());
  }
}

TEST(SnapshotHeader, FingerprintCoversBehaviorShapingFields) {
  ExperimentSpec a = multi_core_spec(1, MemoryMode::kRop, true);
  ExperimentSpec b = a;
  EXPECT_EQ(config_fingerprint(spec_canonical(a)),
            config_fingerprint(spec_canonical(b)));

  b.seed_salt = 17;
  EXPECT_NE(config_fingerprint(spec_canonical(a)),
            config_fingerprint(spec_canonical(b)));

  // Snapshot paths deliberately do NOT perturb the fingerprint: the save
  // and restore sides differ in them by construction.
  ExperimentSpec c = a;
  c.snapshot.in = "/tmp/x.snap";
  c.snapshot.out = "/tmp/y.snap";
  c.snapshot.stop_at = 123;
  EXPECT_EQ(config_fingerprint(spec_canonical(a)),
            config_fingerprint(spec_canonical(c)));
}

// ---------------------------------------------------------------------------
// The bit-identity matrix.

/// Full stats document with the wall-clock fields (the only
/// non-deterministic outputs) zeroed, so the comparison is byte-exact.
std::string json_of(ExperimentResult r) {
  r.wall_seconds = 0.0;
  return r.to_json();
}

/// An off-ratio cut at `num/den` of the run's natural length: odd, so it
/// never lands on a memory-window boundary (cpu_ratio is 4), and derived
/// from the measured length so it always falls mid-run regardless of how
/// fast the scheme retires the workload.
std::uint64_t cut_at(const ExperimentResult& unbroken, std::uint64_t num,
                     std::uint64_t den) {
  return (unbroken.run.cpu_cycles * num / den) | 1;
}

/// Run `spec` unbroken, then split at ~2/5 of its natural length (first
/// half checkpoints and stops; second half restores and finishes), and
/// require byte-identical final documents.
void expect_split_identical(const ExperimentSpec& spec,
                            const std::string& snap_file) {
  const ExperimentResult ref = run_experiment(spec);
  const std::string unbroken = json_of(ref);
  const std::uint64_t cut = cut_at(ref, 2, 5);
  ASSERT_GT(ref.run.cpu_cycles, cut);

  ExperimentSpec first = spec;
  first.snapshot.out = snap_file;
  first.snapshot.stop_at = cut;
  const ExperimentResult half = run_experiment(first);
  ASSERT_TRUE(half.interrupted) << "cut " << cut
                                << " landed after the natural end";

  ExperimentSpec second = spec;
  second.snapshot.in = snap_file;
  const ExperimentResult full = run_experiment(second);
  EXPECT_FALSE(full.interrupted);
  EXPECT_EQ(unbroken, json_of(full));
}

ExperimentSpec matrix_spec(MemoryMode mode) {
  ExperimentSpec spec = multi_core_spec(1, mode, /*rank_partition=*/true);
  spec.instructions_per_core = 80'000;
  spec.telemetry.sampler.epoch_cycles = 10'000;  // epoch series compared too
  return spec;
}

class SnapshotSplit : public ::testing::TestWithParam<MemoryMode> {};

TEST_P(SnapshotSplit, EventLoopSerial) {
  ExperimentSpec spec = matrix_spec(GetParam());
  spec.loop = cpu::LoopMode::kEventDriven;
  // Off-ratio cut: lands inside a memory window and (for long stalls)
  // inside a bulk-advance span — advance_until must clamp exactly.
  expect_split_identical(
      spec, tmp_path(std::string("event_serial_") +
                     memory_mode_name(GetParam())));
}

TEST_P(SnapshotSplit, FrozenStallLoopSerial) {
  ExperimentSpec spec = matrix_spec(GetParam());
  spec.loop = cpu::LoopMode::kFrozenStall;
  expect_split_identical(
      spec, tmp_path(std::string("frozen_serial_") +
                     memory_mode_name(GetParam())));
}

TEST_P(SnapshotSplit, ShardedTwoAndFour) {
  for (const std::uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ExperimentSpec spec = matrix_spec(GetParam());
    spec.ranks = 2;
    spec.channels = 4;
    spec.shard_channels = shards;
    spec.rank_partition = false;
    expect_split_identical(
        spec, tmp_path(std::string("sharded_") + memory_mode_name(GetParam()) +
                       "_" + std::to_string(shards)));
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SnapshotSplit,
                         ::testing::ValuesIn(kAllMemoryModes),
                         [](const auto& param_info) {
                           std::string n = memory_mode_name(param_info.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// Splitting twice (restore, run, checkpoint again, restore again) composes:
// the second restore starts from a snapshot written by a restored run.
TEST(SnapshotSplit, DoubleSplitComposes) {
  ExperimentSpec spec = matrix_spec(MemoryMode::kRop);
  const ExperimentResult ref = run_experiment(spec);
  const std::string unbroken = json_of(ref);

  const std::string file_a = tmp_path("double_a");
  const std::string file_b = tmp_path("double_b");
  ExperimentSpec first = spec;
  first.snapshot.out = file_a;
  first.snapshot.stop_at = cut_at(ref, 1, 4);
  ASSERT_TRUE(run_experiment(first).interrupted);

  ExperimentSpec second = spec;
  second.snapshot.in = file_a;
  second.snapshot.out = file_b;
  second.snapshot.stop_at = cut_at(ref, 7, 10);
  ASSERT_TRUE(run_experiment(second).interrupted);

  ExperimentSpec third = spec;
  third.snapshot.in = file_b;
  EXPECT_EQ(unbroken, json_of(run_experiment(third)));
}

// Periodic checkpointing: `every` leaves the last periodic snapshot on
// disk at the natural end; resuming from it replays only the tail and must
// land on the identical document. Also proves periodic writes themselves
// don't perturb the run (the whole point of checkpoint transparency).
TEST(SnapshotSplit, PeriodicCheckpointThenResume) {
  ExperimentSpec spec = matrix_spec(MemoryMode::kElastic);
  const ExperimentResult ref = run_experiment(spec);
  const std::string unbroken = json_of(ref);

  const std::string file = tmp_path("periodic");
  ExperimentSpec periodic = spec;
  periodic.snapshot.out = file;
  // ~3 checkpoints over the run; the file ends holding the last one.
  periodic.snapshot.every = ref.run.cpu_cycles / 3 + 1;
  const ExperimentResult full = run_experiment(periodic);
  EXPECT_FALSE(full.interrupted);
  EXPECT_EQ(unbroken, json_of(full));

  ExperimentSpec resumed = spec;
  resumed.snapshot.in = file;
  EXPECT_EQ(unbroken, json_of(run_experiment(resumed)));
}

// The trace sink rides along (serial loops only): ring contents, head, and
// drop counter survive the split — checked implicitly through the trace
// block of the JSON document plus the event-count fields.
TEST(SnapshotSplit, TraceSinkSurvivesSplit) {
  ExperimentSpec spec = matrix_spec(MemoryMode::kRop);
  spec.telemetry.trace.categories = telemetry::kCatAll;
  spec.telemetry.trace.capacity = 4096;
  const ExperimentResult a = run_experiment(spec);
  ASSERT_NE(a.trace, nullptr);

  const std::string file = tmp_path("trace");
  ExperimentSpec first = spec;
  first.snapshot.out = file;
  first.snapshot.stop_at = cut_at(a, 2, 5);
  ASSERT_TRUE(run_experiment(first).interrupted);
  ExperimentSpec second = spec;
  second.snapshot.in = file;
  const ExperimentResult b = run_experiment(second);
  ASSERT_NE(b.trace, nullptr);

  ASSERT_EQ(a.trace->size(), b.trace->size());
  EXPECT_EQ(a.trace->dropped(), b.trace->dropped());
  EXPECT_EQ(json_of(a), json_of(b));
}

}  // namespace
}  // namespace rop::sim
