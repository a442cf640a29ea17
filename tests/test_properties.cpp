// Property-based parameterized suites over randomized inputs: timing
// legality of scheduled command streams, probability ranges, budget
// conservation, request conservation.
#include <gtest/gtest.h>

#include <deque>

#include "common/rng.h"
#include "mem/memory_system.h"
#include "rop/pattern_profiler.h"
#include "rop/prediction_table.h"
#include "rop/rop_engine.h"

namespace rop {
namespace {

// --- Timing legality: replay random request loads through the controller
// and verify rank-level invariants on the issued command stream via a
// shadow checker fed from channel events. The channel itself aborts on
// illegal commands (ROP_ASSERT in Bank::issue), so simply surviving a
// randomized run is the property; these tests also check aggregate
// invariants afterwards.

struct LoadParams {
  std::uint64_t seed;
  std::uint32_t ranks;
  double write_fraction;
  Cycle mean_gap;
};

class RandomLoadTest : public ::testing::TestWithParam<LoadParams> {};

TEST_P(RandomLoadTest, RandomTrafficNeverTripsTimingAsserts) {
  const LoadParams p = GetParam();
  mem::MemoryConfig cfg;
  cfg.timings = dram::make_ddr4_1600_timings();
  cfg.org.ranks = p.ranks;
  StatRegistry stats;
  mem::MemorySystem mem(cfg, &stats);
  Rng rng(p.seed);

  std::uint64_t accepted_reads = 0;
  std::uint64_t completed_reads = 0;
  const std::uint64_t total_lines = cfg.org.total_lines();
  Cycle next_arrival = 0;
  const Cycle horizon = 4 * cfg.timings.tREFI;
  for (Cycle now = 0; now < horizon; ++now) {
    if (now >= next_arrival) {
      const Address addr = rng.next_below(total_lines) << kLineShift;
      const bool is_write = rng.next_bool(p.write_fraction);
      const auto type = is_write ? mem::ReqType::kWrite : mem::ReqType::kRead;
      if (mem.can_accept(addr, type)) {
        const auto id = mem.enqueue(addr, type, 0, now);
        if (id && !is_write) ++accepted_reads;
      }
      next_arrival = now + rng.next_gap(static_cast<double>(p.mean_gap));
    }
    mem.tick(now);
    completed_reads += mem.drain_completed().size();
  }
  // Drain the tail.
  for (Cycle now = horizon; completed_reads < accepted_reads &&
                            now < horizon + 100'000;
       ++now) {
    mem.tick(now);
    completed_reads += mem.drain_completed().size();
  }
  EXPECT_EQ(completed_reads, accepted_reads);

  // Refresh average rate: one per tREFI per rank (within slack).
  const auto& rm = mem.controller(0).refresh_manager();
  for (RankId r = 0; r < p.ranks; ++r) {
    EXPECT_GE(rm.issued(r), 3u);
    EXPECT_LE(rm.issued(r), 6u);  // horizon boundaries + at most one in the tail
  }
  mem.finalize(horizon + 100'000);
  // Activity accounting is exhaustive for every rank.
  for (RankId r = 0; r < p.ranks; ++r) {
    const auto& a = mem.controller(0).channel().rank(r).activity();
    EXPECT_EQ(a.active_cycles + a.precharged_cycles + a.refresh_cycles,
              horizon + 100'000);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Loads, RandomLoadTest,
    ::testing::Values(LoadParams{1, 1, 0.0, 8}, LoadParams{2, 1, 0.3, 20},
                      LoadParams{3, 2, 0.5, 12}, LoadParams{4, 4, 0.25, 30},
                      LoadParams{5, 4, 0.9, 15}, LoadParams{6, 2, 0.1, 5}));

// --- ROP-enabled runs satisfy the same conservation and legality bounds.

class RandomRopLoadTest : public ::testing::TestWithParam<LoadParams> {};

TEST_P(RandomRopLoadTest, RopTrafficConservesRequests) {
  const LoadParams p = GetParam();
  mem::MemoryConfig cfg;
  cfg.timings = dram::make_ddr4_1600_timings();
  cfg.org.ranks = p.ranks;
  cfg.ctrl.refresh = mem::RefreshScheme::kRop;
  StatRegistry stats;
  mem::MemorySystem mem(cfg, &stats);
  engine::RopConfig rc;
  rc.training_refreshes = 3;
  engine::RopEngine eng(rc, mem.controller(0), mem.address_map(), &stats);
  Rng rng(p.seed * 77);

  std::uint64_t accepted_reads = 0;
  std::uint64_t completed_reads = 0;
  std::uint64_t stream_line = 0;
  const Cycle horizon = 6 * cfg.timings.tREFI;
  Cycle next_arrival = 0;
  for (Cycle now = 0; now < horizon; ++now) {
    if (now >= next_arrival) {
      // Mix of streaming and random traffic exercises both prediction
      // success and failure paths.
      const Address addr = rng.next_bool(0.5)
                               ? (stream_line++ << kLineShift)
                               : rng.next_below(1 << 22) << kLineShift;
      const bool is_write = rng.next_bool(p.write_fraction);
      const auto type = is_write ? mem::ReqType::kWrite : mem::ReqType::kRead;
      if (mem.can_accept(addr, type)) {
        const auto id = mem.enqueue(addr, type, 0, now);
        if (id && !is_write) ++accepted_reads;
      }
      next_arrival = now + rng.next_gap(static_cast<double>(p.mean_gap));
    }
    mem.tick(now);
    completed_reads += mem.drain_completed().size();
  }
  for (Cycle now = horizon; completed_reads < accepted_reads &&
                            now < horizon + 200'000;
       ++now) {
    mem.tick(now);
    completed_reads += mem.drain_completed().size();
  }
  EXPECT_EQ(completed_reads, accepted_reads);
  EXPECT_GE(eng.overall_hit_rate(), 0.0);
  EXPECT_LE(eng.overall_hit_rate(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Loads, RandomRopLoadTest,
    ::testing::Values(LoadParams{11, 1, 0.2, 10}, LoadParams{12, 1, 0.4, 25},
                      LoadParams{13, 2, 0.3, 18}, LoadParams{14, 4, 0.2, 40}));

// --- Prediction table properties over random access sequences.

class TableProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TableProperty, BudgetsNeverExceedCapacityAndOffsetsInRange) {
  Rng rng(GetParam());
  const std::uint64_t bank_lines = 1 << 16;
  engine::PredictionTable t(8, bank_lines);
  for (int i = 0; i < 3000; ++i) {
    t.on_access(static_cast<BankId>(rng.next_below(8)),
                rng.next_below(bank_lines), i);
    if (i % 97 == 0) {
      const std::uint32_t cap = 1 + static_cast<std::uint32_t>(
                                        rng.next_below(128));
      const auto preds =
          t.predict(cap, rng.next_bool(0.5), i, rng.next_below(2) * 500);
      std::uint32_t total = 0;
      for (const auto& bp : preds) {
        total += bp.budget;
        EXPECT_LE(bp.offsets.size(), bp.budget);
        for (const auto off : bp.offsets) {
          EXPECT_LT(off, bank_lines);
        }
      }
      EXPECT_LE(total, cap);
    }
    if (i % 501 == 0) t.decay();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Correlator probability properties over random timelines.

class CorrelatorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CorrelatorProperty, ProbabilitiesAlwaysInUnitInterval) {
  Rng rng(GetParam() * 1337);
  engine::WindowCorrelator wc(500 + rng.next_below(2000), 2);
  Cycle now = 0;
  for (int i = 0; i < 5000; ++i) {
    now += 1 + rng.next_below(300);
    const RankId rank = static_cast<RankId>(rng.next_below(2));
    if (rng.next_bool(0.2)) {
      wc.on_refresh(rank, now);
    } else {
      wc.on_request(rank, now, rng.next_bool(0.7));
    }
  }
  wc.finalize();
  const auto& c = wc.counts();
  EXPECT_GE(c.lambda(), 0.0);
  EXPECT_LE(c.lambda(), 1.0);
  EXPECT_GE(c.beta(), 0.0);
  EXPECT_LE(c.beta(), 1.0);
  EXPECT_GE(c.e1_fraction() + c.e2_fraction(), 0.0);
  EXPECT_LE(c.e1_fraction() + c.e2_fraction(), 1.0);
  // Every refresh was categorized exactly once.
  EXPECT_GT(c.total(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorrelatorProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace rop
