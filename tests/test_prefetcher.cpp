// Prefetcher tests: coordinate plumbing between prediction tables and the
// address map.
#include <gtest/gtest.h>

#include "rop/prefetcher.h"

namespace rop::engine {
namespace {

class PrefetcherTest : public ::testing::Test {
 protected:
  PrefetcherTest()
      : map(make_org()),
        pf(map, 0, 2) {}

  static dram::DramOrganization make_org() {
    dram::DramOrganization org;
    org.ranks = 2;
    org.banks = 8;
    return org;
  }

  void touch(Address addr, Cycle now) {
    pf.on_access(map.map(addr), now);
  }

  mem::AddressMap map;
  Prefetcher pf;
};

TEST_F(PrefetcherTest, EmptyTableMakesNoPrefetches) {
  EXPECT_TRUE(pf.make_prefetches(0, 16).empty());
}

TEST_F(PrefetcherTest, StreamYieldsNextLines) {
  // Walk 20 consecutive lines (all land in rank 0, bank 0, columns 0..19).
  for (std::uint64_t line = 0; line < 20; ++line) {
    touch(line << kLineShift, line);
  }
  const auto reqs = pf.make_prefetches(0, 8);
  ASSERT_FALSE(reqs.empty());
  for (std::size_t k = 0; k < reqs.size(); ++k) {
    EXPECT_EQ(reqs[k].type, mem::ReqType::kPrefetch);
    EXPECT_EQ(reqs[k].coord.rank, 0u);
    EXPECT_EQ(reqs[k].line_addr, (20 + k) << kLineShift);
    // line_addr and coord must agree.
    EXPECT_EQ(map.map(reqs[k].line_addr), reqs[k].coord);
  }
}

TEST_F(PrefetcherTest, RankTablesAreIndependent) {
  // Touch only rank 1 (use compose_in_rank to pin the rank).
  for (std::uint64_t i = 0; i < 10; ++i) {
    touch(map.compose_in_rank(1, i), i);
  }
  EXPECT_TRUE(pf.make_prefetches(0, 8).empty());
  EXPECT_FALSE(pf.make_prefetches(1, 8).empty());
}

TEST_F(PrefetcherTest, OtherChannelsIgnored) {
  mem::AddressMap map2(make_org());
  Prefetcher pf_ch1(map2, /*channel=*/1, 2);
  DramCoord c = map2.map(0x40);
  c.channel = 0;  // not this prefetcher's channel
  pf_ch1.on_access(c, 0);
  EXPECT_TRUE(pf_ch1.make_prefetches(0, 8).empty());
}

TEST_F(PrefetcherTest, CapacityBoundsRequestCount) {
  for (std::uint64_t line = 0; line < 64; ++line) {
    touch(line << kLineShift, line);
  }
  EXPECT_LE(pf.make_prefetches(0, 4).size(), 4u);
  EXPECT_LE(pf.make_prefetches(0, 64).size(), 64u);
}

TEST_F(PrefetcherTest, ClearForgetsHistory) {
  for (std::uint64_t line = 0; line < 20; ++line) {
    touch(line << kLineShift, line);
  }
  pf.clear();
  EXPECT_TRUE(pf.make_prefetches(0, 8).empty());
}

TEST_F(PrefetcherTest, RecencyHorizonFocusesHotBank) {
  // Old traffic in bank 0 (columns of row 0), recent in bank 1.
  for (std::uint64_t line = 0; line < 20; ++line) {
    touch(line << kLineShift, 100 + line);  // bank 0
  }
  for (std::uint64_t line = 128; line < 148; ++line) {
    touch(line << kLineShift, 10'000 + line);  // bank 1
  }
  const auto reqs =
      pf.make_prefetches(0, 16, /*now=*/10'200, /*recency_horizon=*/300);
  ASSERT_FALSE(reqs.empty());
  std::size_t bank1 = 0;
  for (const auto& r : reqs) {
    if (r.coord.bank == 1) ++bank1;
  }
  EXPECT_GE(bank1 * 2, reqs.size());  // majority targets the hot bank
}

}  // namespace
}  // namespace rop::engine
