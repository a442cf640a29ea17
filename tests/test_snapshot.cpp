// Checkpoint/restore bit-identity: a run split at an arbitrary CPU cycle
// (snapshot written by the first half, restored by the second) must produce
// the byte-identical final stats document — every counter, Shewchuk scalar
// sum, histogram, epoch row, and run metric — as the unbroken run, across
// every refresh scheme and channel count. Aggregate
// identity here is strict: Controller::tick is not idempotent, so any
// state the snapshot missed (a queue index, an RNG word, a refresh phase,
// the loop cursor itself) diverges the tail of the run and shows up in the
// JSON diff.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/snapshot_io.h"
#include "sim/experiment.h"
#include "check/sim_checker.h"
#include "sim/sim_instance.h"
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

  // Nor does the ignored shard count.
  ExperimentSpec d = a;
  d.shard_channels = 4;
  EXPECT_EQ(config_fingerprint(spec_canonical(a)),
            config_fingerprint(spec_canonical(d)));
}

// Golden values: any drift in the canonical string (a renamed field, a
// renumbered enum such as cpu::LoopMode) would orphan every snapshot
// already on disk, so it must fail here first. (Format v5 dropped the
// ignored shard count from the string; v6 moved the hash to true FNV-1a,
// and these values are FNV-1a of the canonical strings computed outside
// this code base.)
TEST(SnapshotHeader, FingerprintIsPinned) {
  EXPECT_EQ(config_fingerprint(spec_canonical(
                single_core_spec("lbm", MemoryMode::kRop))),
            0xb4ce81cbfc601d9fULL);
  EXPECT_EQ(config_fingerprint(spec_canonical(
                multi_core_spec(1, MemoryMode::kDarp, true))),
            0xc3a9bcd387d1d856ULL);
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

// Named after the retired shard counts; the split now runs the per-channel
// clocks of one and of four channels (the snapshot carries every clock).
TEST_P(SnapshotSplit, ShardedTwoAndFour) {
  for (const std::uint32_t channels : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "channels=" << channels);
    ExperimentSpec spec = matrix_spec(GetParam());
    spec.ranks = 2;
    spec.channels = channels;
    spec.rank_partition = false;
    expect_split_identical(
        spec, tmp_path(std::string("channels_") +
                       memory_mode_name(GetParam()) + "_" +
                       std::to_string(channels)));
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

// Planner workers reuse one replica across windows: every job restores a
// snapshot into an instance that already ran the previous window. The
// restored run must end in the same state (the whole snapshot, stats
// registry included) as a fresh instance restored from the same snapshot,
// with the invariant checker, scheduler-table audit included, silent on
// the reused instance.
TEST(SnapshotSplit, RestoreIntoUsedReplicaMatchesFreshReplica) {
  for (const MemoryMode mode :
       {MemoryMode::kRop, MemoryMode::kPausing, MemoryMode::kDarp,
        MemoryMode::kSarp}) {
    SCOPED_TRACE(memory_mode_name(mode));
    ExperimentSpec spec = matrix_spec(mode);
    spec.instructions_per_core = 400'000;
    spec.telemetry.sampler.epoch_cycles = 0;
    const std::uint64_t fp = config_fingerprint(spec_canonical(spec));
    const std::uint64_t window = 20'001;

    // Backbone: two window starts, the second well past the first window.
    SimInstance backbone = build_sim_instance(spec);
    backbone.system->begin_run(spec.instructions_per_core,
                               spec.max_cpu_cycles);
    ASSERT_FALSE(backbone.system->advance_until(30'001));
    const std::string first =
        save_snapshot_buffer(backbone.snapshot_context(), fp);
    ASSERT_FALSE(backbone.system->advance_until(90'003));
    const std::string second =
        save_snapshot_buffer(backbone.snapshot_context(), fp);

    // Declared before the checker, so the checker (whose destructor
    // detaches from the memory) goes first.
    SimInstance used;
    check::SimChecker checker;
    SimInstanceHooks hooks;
    hooks.post_memory = [&checker](mem::MemorySystem& m) {
      checker.attach(m);
    };
    used = build_sim_instance(spec, nullptr, hooks);
    used.system->begin_run(spec.instructions_per_core, spec.max_cpu_cycles);
    std::string err;
    ASSERT_TRUE(load_snapshot_buffer(first, used.snapshot_context(), fp,
                                     &err))
        << err;
    (void)used.system->advance_until(used.system->cpu_cycle() + window);
    ASSERT_TRUE(load_snapshot_buffer(second, used.snapshot_context(), fp,
                                     &err))
        << err;
    (void)used.system->advance_until(used.system->cpu_cycle() + window);

    SimInstance fresh = build_sim_instance(spec);
    fresh.system->begin_run(spec.instructions_per_core, spec.max_cpu_cycles);
    ASSERT_TRUE(load_snapshot_buffer(second, fresh.snapshot_context(), fp,
                                     &err))
        << err;
    (void)fresh.system->advance_until(fresh.system->cpu_cycle() + window);

    EXPECT_EQ(save_snapshot_buffer(used.snapshot_context(), fp),
              save_snapshot_buffer(fresh.snapshot_context(), fp));
    EXPECT_GT(checker.ticks_checked(), 0u);
    EXPECT_TRUE(checker.ok()) << checker.summary();
  }
}

// A checked run spans a restore: the checker's counters travel in the
// snapshot, so the split run reports the unbroken run's audit totals.
TEST(SnapshotSplit, CheckedSplitCarriesTheAudit) {
  for (const std::uint32_t channels : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "channels=" << channels);
    ExperimentSpec spec = matrix_spec(MemoryMode::kRop);
    spec.check = true;
    spec.channels = channels;
    const ExperimentResult ref = run_experiment(spec);
    ASSERT_GT(ref.checker_ticks, 0u);
    expect_split_identical(spec,
                           tmp_path("checked_" + std::to_string(channels)));
  }
}

// The checker section is optional and trailing: an unchecked snapshot's
// bytes are exactly the head of the checked one, a checked snapshot
// restores into an unchecked run, and an unchecked one into a checked run
// (whose audit then counts from the restore).
TEST(SnapshotChecker, SectionIsOptionalAndTrailing) {
  ExperimentSpec spec = matrix_spec(MemoryMode::kPausing);
  spec.telemetry.sampler.epoch_cycles = 0;
  const std::uint64_t fp = config_fingerprint(spec_canonical(spec));
  const auto advanced = [&](SimInstance& inst, check::SimChecker* checker) {
    SimInstanceHooks hooks;
    if (checker != nullptr) {
      hooks.post_memory = [checker](mem::MemorySystem& m) {
        checker->attach(m);
      };
    }
    inst = build_sim_instance(spec, nullptr, hooks);
    inst.system->begin_run(spec.instructions_per_core, spec.max_cpu_cycles);
    EXPECT_FALSE(inst.system->advance_until(30'001));
    SnapshotContext ctx = inst.snapshot_context();
    if (checker != nullptr) ctx.checkers.push_back(checker);
    return ctx;
  };
  SimInstance plain;
  const std::string unchecked =
      save_snapshot_buffer(advanced(plain, nullptr), fp);
  SimInstance audited;
  check::SimChecker checker;
  const std::string checked =
      save_snapshot_buffer(advanced(audited, &checker), fp);
  ASSERT_GT(checker.ticks_checked(), 0u);
  ASSERT_GT(checked.size(), unchecked.size());
  EXPECT_EQ(checked.substr(0, unchecked.size()), unchecked);

  std::string err;
  SimInstance fresh = build_sim_instance(spec);
  fresh.system->begin_run(spec.instructions_per_core, spec.max_cpu_cycles);
  EXPECT_TRUE(load_snapshot_buffer(checked, fresh.snapshot_context(), fp,
                                   &err))
      << err;

  SimInstance resumed;
  check::SimChecker restored;
  SimInstanceHooks hooks;
  hooks.post_memory = [&restored](mem::MemorySystem& m) { restored.attach(m); };
  resumed = build_sim_instance(spec, nullptr, hooks);
  resumed.system->begin_run(spec.instructions_per_core, spec.max_cpu_cycles);
  SnapshotContext ctx = resumed.snapshot_context();
  ctx.checkers.push_back(&restored);
  ASSERT_TRUE(load_snapshot_buffer(checked, ctx, fp, &err)) << err;
  EXPECT_EQ(restored.ticks_checked(), checker.ticks_checked());
  EXPECT_EQ(restored.requests_retired(), checker.requests_retired());
  ASSERT_TRUE(load_snapshot_buffer(unchecked, ctx, fp, &err)) << err;
  EXPECT_EQ(restored.ticks_checked(), checker.ticks_checked());

  // A cut through the checker section is a corrupt file, not a silent drop.
  EXPECT_FALSE(load_snapshot_buffer(checked.substr(0, checked.size() - 3),
                                    ctx, fp, &err));
  EXPECT_EQ(err, "snapshot truncated or corrupt");
}

// Snapshot files end in a checksum of everything before it: a truncated
// or bit-flipped file fails the restore with an error before any section
// is read, instead of feeding corrupt state to the simulator.
TEST(SnapshotFile, CorruptFilesFailTheRestoreCleanly) {
  ExperimentSpec spec = single_core_spec("lbm", MemoryMode::kRop);
  spec.instructions_per_core = 200'000;
  const std::uint64_t fp = config_fingerprint(spec_canonical(spec));
  const std::string path = tmp_path("fuzz");
  ExperimentSpec first = spec;
  first.snapshot.out = path;
  first.snapshot.stop_at = 40'001;
  ASSERT_TRUE(run_experiment(first).interrupted);
  std::string good;
  {
    std::ifstream is(path, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(is),
                std::istreambuf_iterator<char>());
  }
  constexpr std::size_t kHeader = 20;  // magic, version, fingerprint
  ASSERT_GT(good.size(), kHeader + 64);

  SimInstance inst = build_sim_instance(spec);
  inst.system->begin_run(spec.instructions_per_core, spec.max_cpu_cycles);
  const SnapshotContext ctx = inst.snapshot_context();
  const auto restore = [&](const std::string& bytes, std::string* err) {
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os << bytes;
    }
    return read_snapshot_file(path, ctx, fp, err);
  };

  Rng rng(2024);
  std::string err;
  for (int i = 0; i < 10; ++i) {
    const std::size_t size =
        kHeader + rng.next_below(good.size() - kHeader);
    SCOPED_TRACE(testing::Message() << "truncated to " << size);
    err.clear();
    EXPECT_FALSE(restore(good.substr(0, size), &err));
    EXPECT_FALSE(err.empty());
  }
  for (int i = 0; i < 50; ++i) {
    std::string bad = good;
    const std::size_t byte = kHeader + rng.next_below(good.size() - kHeader);
    const auto bit = static_cast<unsigned>(rng.next_below(8));
    bad[byte] = static_cast<char>(bad[byte] ^ (1u << bit));
    SCOPED_TRACE(testing::Message() << "bit " << bit << " of byte " << byte);
    err.clear();
    EXPECT_FALSE(restore(bad, &err));
    EXPECT_EQ(err, "snapshot checksum mismatch");
  }

  // The intact file still restores.
  EXPECT_TRUE(restore(good, &err)) << err;
  std::remove(path.c_str());
}

// The controller section is trusted only after its indices check out: an
// in-memory buffer carries no checksum, and the load rebuilds the rank
// counts by indexing the arena and the rank records with values read from
// the bytes. A bad index must fail the load with a reason, never abort or
// read out of bounds.
TEST(SnapshotBuffer, LoadRejectsQueueIndicesItCannotTrust) {
  ExperimentSpec spec = single_core_spec("lbm", MemoryMode::kRop);
  spec.instructions_per_core = 400'000;
  const std::uint64_t fp = config_fingerprint(spec_canonical(spec));
  SimInstance backbone = build_sim_instance(spec);
  backbone.system->begin_run(spec.instructions_per_core,
                             spec.max_cpu_cycles);
  const mem::Controller& ctrl = backbone.memory->controller(0);
  // Step to a cut with at least two queued reads.
  std::uint64_t cut = 10'001;
  while (ctrl.read_queue().size() < 2) {
    ASSERT_FALSE(backbone.system->advance_until(cut));
    cut += 97;
  }
  const std::string good =
      save_snapshot_buffer(backbone.snapshot_context(), fp);

  // The serialized read queue: its length, then its arena indices.
  snap::Writer queue;
  std::uint64_t queued = ctrl.read_queue().size();
  queue(queued);
  for (std::size_t i = 0; i < queued; ++i) {
    mem::RequestIndex idx = ctrl.read_queue().index(i);
    queue(idx);
  }
  const std::size_t queue_at = good.find(queue.buffer());
  ASSERT_NE(queue_at, std::string::npos);
  ASSERT_EQ(good.find(queue.buffer(), queue_at + 1), std::string::npos);

  // The first queued request's bytes, and where its rank field sits: the
  // bytes that change when only the rank does.
  mem::Request req = *ctrl.read_queue().begin();
  snap::Writer before;
  before.field(req);
  req.coord.rank = 0xff;
  snap::Writer after;
  after.field(req);
  const std::size_t req_at = good.find(before.buffer());
  ASSERT_NE(req_at, std::string::npos);
  ASSERT_EQ(good.find(before.buffer(), req_at + 1), std::string::npos);
  std::size_t rank_at = 0;
  while (before.buffer()[rank_at] == after.buffer()[rank_at]) ++rank_at;

  const auto load = [&](const std::string& bytes, std::string* err) {
    SimInstance inst = build_sim_instance(spec);
    inst.system->begin_run(spec.instructions_per_core, spec.max_cpu_cycles);
    return load_snapshot_buffer(bytes, inst.snapshot_context(), fp, err);
  };
  std::string err;
  ASSERT_TRUE(load(good, &err)) << err;

  std::string past_arena = good;
  past_arena.replace(queue_at + sizeof(std::uint64_t), sizeof(std::uint32_t),
                     std::string(4, '\x7f'));
  err.clear();
  EXPECT_FALSE(load(past_arena, &err));
  EXPECT_NE(err.find("read-queue index 2139062143 past the arena"),
            std::string::npos)
      << err;

  std::string twice = good;
  twice.replace(queue_at + sizeof(std::uint64_t) + sizeof(std::uint32_t),
                sizeof(std::uint32_t),
                good.substr(queue_at + sizeof(std::uint64_t),
                            sizeof(std::uint32_t)));
  err.clear();
  EXPECT_FALSE(load(twice, &err));
  EXPECT_NE(err.find("queued twice"), std::string::npos) << err;

  std::string bad_rank = good;
  bad_rank[req_at + rank_at] = '\x05';
  err.clear();
  EXPECT_FALSE(load(bad_rank, &err));
  EXPECT_NE(err.find("names rank 5"), std::string::npos) << err;
}

// The dram sections are trusted only after the bank states, the tFAW
// history and the refresh flags check out: the load rebuilds each rank's
// summaries (active banks, REFpb release) and the channel's from them, and
// the scheduler dereferences an active bank's open row. A bad value must
// fail the load with a reason naming the channel, rank and bank.
TEST(SnapshotBuffer, LoadRejectsDramStateItCannotTrust) {
  ExperimentSpec spec = multi_core_spec(1, MemoryMode::kDarp, false);
  spec.channels = 2;
  spec.instructions_per_core = 400'000;
  const std::uint64_t fp = config_fingerprint(spec_canonical(spec));
  SimInstance backbone = build_sim_instance(spec);
  backbone.system->begin_run(spec.instructions_per_core,
                             spec.max_cpu_cycles);
  const dram::Channel& ch = backbone.memory->controller(1).channel();
  // Step to a cut where channel 1 has a REFpb lock in flight on one rank,
  // another rank with no lock, and a precharged bank on that one.
  const auto find_rank = [&](bool pb_locked) {
    for (RankId r = 0; r < ch.num_ranks(); ++r) {
      const dram::Rank& rank = ch.rank(r);
      if (!rank.refreshing() && rank.pb_refreshing() == pb_locked &&
          (pb_locked || rank.active_banks() != 0xffu)) {
        return r;
      }
    }
    return RankId{~0u};
  };
  std::uint64_t cut = 20'001;
  while (find_rank(true) == ~0u || find_rank(false) == ~0u) {
    ASSERT_FALSE(backbone.system->advance_until(cut));
    cut += 97;
  }
  const RankId locked = find_rank(true);
  const RankId idle = find_rank(false);
  const auto idle_bank = static_cast<BankId>(
      std::countr_one(ch.rank(idle).active_banks()));
  BankId locked_bank = 0;
  while (ch.rank(locked).bank(locked_bank).state() !=
         dram::BankState::kRefreshing) {
    ++locked_bank;
  }
  const std::string good =
      save_snapshot_buffer(backbone.snapshot_context(), fp);

  // Where each field sits: the channel section is found by its bytes, and
  // a rank or bank starts after the serialized sizes of those before it.
  const auto size_of = [](const auto& part) {
    snap::Writer w;
    w.field(part);
    return w.buffer().size();
  };
  snap::Writer section;
  section.field(ch);
  const std::size_t ch_at = good.find(section.buffer());
  ASSERT_NE(ch_at, std::string::npos);
  const auto bank_at = [&](RankId r, BankId b) {
    std::size_t at = ch_at;
    for (RankId k = 0; k < r; ++k) at += size_of(ch.rank(k));
    for (BankId k = 0; k < b; ++k) at += size_of(ch.rank(r).bank(k));
    return at;
  };
  const BankId banks = ch.rank(0).num_banks();
  // The tFAW history's length word follows the banks and the tRRD / tCCD
  // registers; the REF and REFpb flags follow the history.
  const auto faw_at = [&](RankId r) {
    return bank_at(r, banks) + 2 * sizeof(Cycle);
  };
  const auto word_at = [&](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, good.data() + at, sizeof v);
    return v;
  };
  const auto flags_at = [&](RankId r) {
    return faw_at(r) + sizeof(std::uint64_t) * (1 + word_at(faw_at(r)));
  };
  const auto with_word = [&](std::size_t at, std::uint64_t v) {
    std::string bytes = good;
    bytes.replace(at, sizeof v, reinterpret_cast<const char*>(&v), sizeof v);
    return bytes;
  };
  const auto with_byte = [&](std::size_t at, char v) {
    std::string bytes = good;
    bytes[at] = v;
    return bytes;
  };

  const auto load = [&](const std::string& bytes, std::string* err) {
    SimInstance inst = build_sim_instance(spec);
    inst.system->begin_run(spec.instructions_per_core, spec.max_cpu_cycles);
    return load_snapshot_buffer(bytes, inst.snapshot_context(), fp, err);
  };
  std::string err;
  ASSERT_TRUE(load(good, &err)) << err;
  const auto rejects = [&](const std::string& bytes, const std::string& why) {
    std::string error;
    EXPECT_FALSE(load(bytes, &error));
    EXPECT_NE(error.find(why), std::string::npos) << error;
  };
  const std::string in_locked =
      "snapshot channel 1 rank " + std::to_string(locked) + ": ";
  const std::string in_idle =
      "snapshot channel 1 rank " + std::to_string(idle) + ": ";

  // A bank's state byte comes first.
  rejects(with_byte(bank_at(idle, 3), '\x07'),
          "snapshot channel 1 rank " + std::to_string(idle) +
              " bank 3: state 7 outside the bank state enum");
  rejects(with_byte(bank_at(idle, idle_bank), '\x01'),
          "snapshot channel 1 rank " + std::to_string(idle) + " bank " +
              std::to_string(idle_bank) + ": active without an open row");

  ASSERT_GE(word_at(faw_at(idle)), 2u);
  rejects(with_word(faw_at(idle), 5),
          in_idle + "tFAW history of 5 activates (at most 4)");
  const std::size_t first_act = faw_at(idle) + sizeof(std::uint64_t);
  rejects(with_word(first_act, word_at(first_act + sizeof(Cycle)) + 1),
          in_idle + "tFAW history out of cycle order");

  rejects(with_byte(flags_at(idle), '\x01'),
          in_idle + "bank 0 not frozen under a rank REF");
  const std::size_t pb_flag = 1 + sizeof(Cycle);
  rejects(with_byte(flags_at(idle) + pb_flag, '\x01'),
          in_idle + "REFpb flag set with no bank refresh-locked");
  rejects(with_byte(flags_at(locked) + pb_flag, '\x00'),
          in_locked + "bank " + std::to_string(locked_bank) +
              " refresh-locked with the REFpb flag clear");
}

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

// The trace sink rides along (one channel only): ring contents, head, and
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
