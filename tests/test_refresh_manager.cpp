// Refresh manager tests: cadence, postponement budget, stagger.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "mem/refresh_manager.h"

namespace rop::mem {
namespace {

class RefreshManagerTest : public ::testing::Test {
 protected:
  dram::DramTimings t = dram::make_ddr4_1600_timings();
};

TEST_F(RefreshManagerTest, FirstRefreshDueAtFirstBoundary) {
  RefreshManager rm(t, 1);
  // Nothing is owed until a full tREFI has elapsed: the first boundary
  // sits at offset + tREFI, not at the phase offset itself.
  EXPECT_EQ(rm.owed(0, 0), 0u);
  EXPECT_EQ(rm.owed(0, t.tREFI - 1), 0u);
  EXPECT_EQ(rm.owed(0, t.tREFI), 1u);
  rm.on_refresh_issued(0);
  EXPECT_EQ(rm.owed(0, t.tREFI), 0u);
  EXPECT_EQ(rm.owed(0, 2 * t.tREFI - 1), 0u);
  EXPECT_EQ(rm.owed(0, 2 * t.tREFI), 1u);
}

// Regression for the owed() off-by-one: the formula used to count the
// phase offset itself as a boundary, so rank 0 was issued its first REF
// at cycle 0 instead of one full tREFI in. Pin the first-REF-due cycle
// for every rank of a staggered 4-rank config.
TEST_F(RefreshManagerTest, FirstRefreshCyclePinnedPerRank) {
  RefreshManager rm(t, 4);
  for (RankId r = 0; r < 4; ++r) {
    const Cycle first = rm.phase_offset(r) + t.tREFI;
    EXPECT_EQ(rm.owed(r, first - 1), 0u) << "rank " << r;
    EXPECT_EQ(rm.owed(r, first), 1u) << "rank " << r;
    EXPECT_EQ(rm.next_boundary(r, 0), first) << "rank " << r;
  }
}

TEST_F(RefreshManagerTest, OwedAccumulatesWhenPostponed) {
  RefreshManager rm(t, 1);
  // Never issue: after k boundaries, k refreshes are owed.
  EXPECT_EQ(rm.owed(0, 3 * t.tREFI), 3u);  // boundaries at 1,2,3 x tREFI
}

TEST_F(RefreshManagerTest, UrgentAtPostponementBudget) {
  RefreshManager rm(t, 1);
  const Cycle almost = t.max_postponed_refreshes * t.tREFI;
  EXPECT_FALSE(rm.urgent(0, almost - 1));
  EXPECT_TRUE(rm.urgent(0, almost));  // 8 boundaries passed, none issued
}

TEST_F(RefreshManagerTest, CatchUpClearsBacklog) {
  RefreshManager rm(t, 1);
  const Cycle now = 3 * t.tREFI;  // 3 owed
  for (int i = 0; i < 3; ++i) rm.on_refresh_issued(0);
  EXPECT_EQ(rm.owed(0, now), 0u);
  EXPECT_EQ(rm.issued(0), 3u);
  EXPECT_EQ(rm.total_issued(), 3u);
}

TEST_F(RefreshManagerTest, RanksAreStaggered) {
  RefreshManager rm(t, 4);
  EXPECT_EQ(rm.phase_offset(0), 0u);
  EXPECT_EQ(rm.phase_offset(1), t.tREFI / 4);
  EXPECT_EQ(rm.phase_offset(3), 3u * t.tREFI / 4);
  // Before its first boundary (offset + tREFI), a rank owes nothing.
  EXPECT_EQ(rm.owed(3, rm.phase_offset(3) + t.tREFI - 1), 0u);
  EXPECT_EQ(rm.owed(3, rm.phase_offset(3) + t.tREFI), 1u);
}

TEST_F(RefreshManagerTest, NextBoundaryAdvancesWithIssues) {
  RefreshManager rm(t, 2);
  EXPECT_EQ(rm.next_boundary(0, 0), static_cast<Cycle>(t.tREFI));
  rm.on_refresh_issued(0);
  EXPECT_EQ(rm.next_boundary(0, 10), static_cast<Cycle>(2 * t.tREFI));
  rm.on_refresh_issued(0);
  EXPECT_EQ(rm.next_boundary(0, 10), static_cast<Cycle>(3 * t.tREFI));
  // Rank 1 boundaries sit one interval past its phase offset.
  EXPECT_EQ(rm.next_boundary(1, 0), rm.phase_offset(1) + t.tREFI);
}

TEST_F(RefreshManagerTest, LongRunAverageOnePerTrefi) {
  RefreshManager rm(t, 1);
  Cycle now = 0;
  std::uint64_t issued = 0;
  // Issue as soon as due for 1000 intervals.
  for (int i = 0; i < 1000; ++i) {
    while (rm.owed(0, now) == 0) now += 13;
    rm.on_refresh_issued(0);
    ++issued;
  }
  EXPECT_EQ(issued, 1000u);
  // Elapsed time ~ 1000 x tREFI (first due at tREFI).
  EXPECT_NEAR(static_cast<double>(now),
              1000.0 * static_cast<double>(t.tREFI),
              static_cast<double>(t.tREFI));
}

TEST_F(RefreshManagerTest, PrecomputedScheduleMatchesReferenceFormulas) {
  // owed(), next_boundary() and next_owed_increase() read a precomputed
  // interval and per-rank offsets; they must equal the formulas written out
  // from the timings, for every unit cadence and rank count, at random
  // times around the boundaries, with refreshes issued ahead of and behind
  // schedule.
  Rng rng(17);
  for (const std::uint32_t units : {1u, 8u}) {
    for (const std::uint32_t ranks : {1u, 3u, 4u}) {
      RefreshManager rm(t, ranks, units);
      const Cycle interval = t.tREFI / units;
      for (int step = 0; step < 4000; ++step) {
        const auto rank = static_cast<RankId>(rng.next_below(ranks));
        if (rng.next_bool(0.3)) rm.on_refresh_issued(rank);
        const Cycle offset = static_cast<Cycle>(rank) * interval / ranks;
        const Cycle now = rng.next_below(40 * interval);
        const std::uint64_t boundaries =
            now < offset + interval ? 0 : (now - offset) / interval;
        const std::uint64_t done = rm.issued(rank);
        ASSERT_EQ(rm.phase_offset(rank), offset);
        ASSERT_EQ(rm.interval(), interval);
        ASSERT_EQ(rm.owed(rank, now),
                  boundaries > done ? boundaries - done : 0)
            << "rank " << rank << " now " << now;
        ASSERT_EQ(rm.next_boundary(rank, now), offset + (done + 1) * interval);
        ASSERT_EQ(rm.next_owed_increase(rank, now),
                  now < offset + interval
                      ? offset + interval
                      : offset + ((now - offset) / interval + 1) * interval);
      }
    }
  }
}

}  // namespace
}  // namespace rop::mem
