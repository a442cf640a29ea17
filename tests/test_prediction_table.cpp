// Prediction table tests: VLDP-variant update rules, Eq. 3 budget split,
// candidate generation, overflow halving, recency filtering.
#include <gtest/gtest.h>

#include <numeric>

#include "rop/prediction_table.h"

namespace rop::engine {
namespace {

constexpr std::uint64_t kBankLines = 1 << 20;

TEST(PredictionTable, FirstAccessOnlySetsLastAddr) {
  PredictionTable t(8, kBankLines);
  t.on_access(0, 100);
  const TableEntry& e = t.entry(0);
  ASSERT_TRUE(e.last_addr.has_value());
  EXPECT_EQ(*e.last_addr, 100u);
  EXPECT_FALSE(e.delta1_valid);
  EXPECT_EQ(e.weight(), 0u);
}

TEST(PredictionTable, RepeatedDeltaIncrementsF1) {
  PredictionTable t(8, kBankLines);
  for (std::uint64_t i = 0; i < 10; ++i) t.on_access(0, 100 + i);
  const TableEntry& e = t.entry(0);
  EXPECT_TRUE(e.delta1_valid);
  EXPECT_EQ(e.delta1, 1);
  // 9 deltas total; the first delta installs (f1=0), 8 repeats follow.
  EXPECT_EQ(e.f1, 8u);
  EXPECT_EQ(*e.last_addr, 109u);
}

TEST(PredictionTable, NewDeltaResetsF1) {
  PredictionTable t(8, kBankLines);
  t.on_access(0, 0);
  t.on_access(0, 1);
  t.on_access(0, 2);  // delta +1 twice -> f1 = 1
  EXPECT_EQ(t.entry(0).f1, 1u);
  t.on_access(0, 50);  // new delta +48
  EXPECT_EQ(t.entry(0).delta1, 48);
  EXPECT_EQ(t.entry(0).f1, 0u);
}

TEST(PredictionTable, TwoDeltaTupleDetected) {
  // Alternating +3 / +5: f1 never grows, f2 does.
  PredictionTable t(8, kBankLines);
  std::uint64_t addr = 0;
  for (int i = 0; i < 40; ++i) {
    addr += (i % 2 == 0) ? 3 : 5;
    t.on_access(0, addr);
  }
  const TableEntry& e = t.entry(0);
  EXPECT_EQ(e.f1, 0u);
  EXPECT_TRUE(e.delta2_valid);
  EXPECT_GT(e.f2, 5u);
}

TEST(PredictionTable, ThreeDeltaTupleDetected) {
  // Period-3 pattern +1,+1,+130 (the VLDP showcase).
  PredictionTable t(8, kBankLines);
  const std::int64_t deltas[3] = {1, 1, 130};
  std::uint64_t addr = 0;
  for (int i = 0; i < 60; ++i) {
    addr += deltas[i % 3];
    t.on_access(0, addr);
  }
  const TableEntry& e = t.entry(0);
  EXPECT_TRUE(e.delta3_valid);
  EXPECT_GT(e.f3, 5u);
  // delta1 oscillates between +1 and +130 installs: it never accumulates.
  EXPECT_LE(e.f1, 1u);
}

TEST(PredictionTable, PerBankIsolation) {
  PredictionTable t(8, kBankLines);
  for (std::uint64_t i = 0; i < 5; ++i) t.on_access(2, i);
  EXPECT_FALSE(t.entry(3).last_addr.has_value());
  EXPECT_GT(t.entry(2).weight(), 0u);
  EXPECT_EQ(t.entry(3).weight(), 0u);
}

TEST(PredictionTable, TotalWeightSumsBanks) {
  PredictionTable t(4, kBankLines);
  for (std::uint64_t i = 0; i < 5; ++i) t.on_access(0, i);
  for (std::uint64_t i = 0; i < 9; ++i) t.on_access(1, i * 2);
  EXPECT_EQ(t.total_weight(), t.entry(0).weight() + t.entry(1).weight());
}

TEST(PredictionTable, PredictBudgetsSumToCapacity) {
  PredictionTable t(8, kBankLines);
  for (std::uint64_t i = 0; i < 30; ++i) t.on_access(static_cast<BankId>(i % 3), 1000 + i / 3);
  const auto preds = t.predict(64);
  const std::uint32_t total = std::accumulate(
      preds.begin(), preds.end(), 0u,
      [](std::uint32_t acc, const BankPrediction& p) { return acc + p.budget; });
  EXPECT_EQ(total, 64u);
}

TEST(PredictionTable, Eq3ProportionalSplit) {
  PredictionTable t(2, kBankLines);
  // Bank 0: 3x the repeats of bank 1.
  for (std::uint64_t i = 0; i < 31; ++i) t.on_access(0, i);       // f1 = 29
  for (std::uint64_t i = 0; i < 11; ++i) t.on_access(1, 500 + i); // f1 = 9
  const auto preds = t.predict(38);
  // weight0 ~ 30ish, weight1 ~ 10ish: budget ratio ~ 3:1.
  EXPECT_GT(preds[0].budget, preds[1].budget * 2);
  EXPECT_GT(preds[1].budget, 0u);
}

TEST(PredictionTable, UniformAblationIgnoresWeights) {
  PredictionTable t(2, kBankLines);
  for (std::uint64_t i = 0; i < 31; ++i) t.on_access(0, i);
  for (std::uint64_t i = 0; i < 11; ++i) t.on_access(1, 500 + i);
  const auto preds = t.predict(40, /*uniform=*/true);
  EXPECT_EQ(preds[0].budget, preds[1].budget);
}

TEST(PredictionTable, GeneratedOffsetsFollowSingleDelta) {
  PredictionTable t(1, kBankLines);
  for (std::uint64_t i = 0; i < 20; ++i) t.on_access(0, 100 + 2 * i);
  const auto preds = t.predict(8);
  // The 2- and 3-delta walks duplicate the single-delta walk here, so the
  // deduplicated candidate list is shorter than the budget but strictly
  // follows the +2 stride from LastAddr (138).
  ASSERT_GE(preds[0].offsets.size(), 4u);
  for (std::size_t k = 0; k < preds[0].offsets.size(); ++k) {
    EXPECT_EQ(preds[0].offsets[k], 138 + 2 * (k + 1));
  }
}

TEST(PredictionTable, OffsetsWrapAroundBankCapacity) {
  PredictionTable t(1, 1000);
  t.on_access(0, 995);
  t.on_access(0, 996);
  t.on_access(0, 997);
  const auto preds = t.predict(6);
  for (const std::uint64_t off : preds[0].offsets) {
    EXPECT_LT(off, 1000u);
  }
}

TEST(PredictionTable, NegativeDeltaWalksBackwards) {
  PredictionTable t(1, kBankLines);
  for (std::uint64_t i = 0; i < 10; ++i) t.on_access(0, 1000 - 3 * i);
  const auto preds = t.predict(3);
  ASSERT_FALSE(preds[0].offsets.empty());
  EXPECT_EQ(preds[0].offsets[0], 1000u - 27 - 3);
}

TEST(PredictionTable, EmptyTablePredictsNothing) {
  PredictionTable t(8, kBankLines);
  const auto preds = t.predict(64);
  for (const auto& p : preds) {
    EXPECT_EQ(p.budget, 0u);
    EXPECT_TRUE(p.offsets.empty());
  }
}

TEST(PredictionTable, ZeroWeightFallsBackToNextLine) {
  PredictionTable t(2, kBankLines);
  t.on_access(0, 42);  // only LastAddr, no repeats
  const auto preds = t.predict(4);
  ASSERT_GT(preds[0].budget, 0u);
  ASSERT_FALSE(preds[0].offsets.empty());
  EXPECT_EQ(preds[0].offsets[0], 43u);  // next-line fallback
}

TEST(PredictionTable, DecayHalvesFrequencies) {
  PredictionTable t(1, kBankLines);
  for (std::uint64_t i = 0; i < 17; ++i) t.on_access(0, i);
  const std::uint16_t before = t.entry(0).f1;
  t.decay();
  EXPECT_EQ(t.entry(0).f1, before / 2);
}

TEST(PredictionTable, ClearForgetsEverything) {
  PredictionTable t(2, kBankLines);
  for (std::uint64_t i = 0; i < 9; ++i) t.on_access(1, i);
  t.clear();
  EXPECT_EQ(t.total_weight(), 0u);
  EXPECT_FALSE(t.entry(1).last_addr.has_value());
}

TEST(PredictionTable, RecencyFilterZeroesStaleBanks) {
  PredictionTable t(2, kBankLines);
  for (std::uint64_t i = 0; i < 10; ++i) t.on_access(0, i, /*now=*/100 + i);
  for (std::uint64_t i = 0; i < 10; ++i) t.on_access(1, i, /*now=*/5000 + i);
  // At now=5100 with a 200-cycle horizon, bank 0 (last access 109) is
  // stale: it keeps at most the small crossing reserve while the active
  // bank takes the bulk of the budget.
  const auto preds = t.predict(32, false, 5100, 200);
  EXPECT_LE(preds[0].budget, 4u);
  EXPECT_GE(preds[1].budget, 28u);
}

TEST(PredictionTable, PredictedNextBankFollowsTransitionStride) {
  PredictionTable t(8, kBankLines);
  EXPECT_FALSE(t.predicted_next_bank().has_value());
  t.on_access(2, 0);
  t.on_access(3, 0);  // stride +1
  ASSERT_TRUE(t.predicted_next_bank().has_value());
  EXPECT_EQ(*t.predicted_next_bank(), 4u);
  t.on_access(5, 1);  // stride +2 now
  EXPECT_EQ(*t.predicted_next_bank(), 7u);
  t.on_access(7, 2);
  EXPECT_EQ(*t.predicted_next_bank(), (7u + 2u) % 8u);  // wraps
}

TEST(PredictionTable, OverflowHalvesAllFrequencies) {
  PredictionTable t(1, kBankLines);
  TableEntry& probe = const_cast<TableEntry&>(t.entry(0));
  // Drive f1 close to the ceiling via direct setup, then one more access.
  t.on_access(0, 0);
  t.on_access(0, 1);
  probe.f1 = 0xFFFF;
  probe.f2 = 100;
  probe.delta2_valid = true;
  probe.delta2 = {1, 1};
  probe.f3 = 60;
  t.on_access(0, 2);  // repeat delta +1: would overflow f1
  EXPECT_EQ(t.entry(0).f1, 0x8000u);  // halved then incremented
  // f2 was halved by the overflow, then its (1,1) tuple matched: 50 + 1.
  EXPECT_EQ(t.entry(0).f2, 51u);
  EXPECT_EQ(t.entry(0).f3, 30u);  // halved only
}

TEST(PredictionTable, DedupAcrossPatterns) {
  // delta1 = +1 and delta2 = (+1,+1) generate overlapping offsets; the
  // candidate list must not contain duplicates.
  PredictionTable t(1, kBankLines);
  for (std::uint64_t i = 0; i < 30; ++i) t.on_access(0, i);
  const auto preds = t.predict(16);
  auto offsets = preds[0].offsets;
  std::sort(offsets.begin(), offsets.end());
  EXPECT_EQ(std::adjacent_find(offsets.begin(), offsets.end()),
            offsets.end());
}

}  // namespace
}  // namespace rop::engine
