#include "core/pruning.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <vector>

#include "util/random.h"

namespace sdadcs::core {
namespace {

TEST(PruneTableTest, ExactMatchPrunes) {
  PruneTable table;
  Itemset entry({Item::Categorical(0, 1)});
  table.Insert(entry);
  EXPECT_TRUE(table.CanPrune(entry));
  EXPECT_EQ(table.size(), 1u);
}

TEST(PruneTableTest, SupersetOfPrunedEntryIsPruned) {
  PruneTable table;
  table.Insert(Itemset({Item::Categorical(0, 1)}));
  Itemset candidate(
      {Item::Categorical(0, 1), Item::Interval(2, 0.0, 5.0)});
  EXPECT_TRUE(table.CanPrune(candidate));
}

TEST(PruneTableTest, SubIntervalOfPrunedRegionIsPruned) {
  PruneTable table;
  table.Insert(Itemset({Item::Interval(1, 0.0, 10.0)}));
  EXPECT_TRUE(table.CanPrune(Itemset({Item::Interval(1, 2.0, 5.0)})));
  // Overlapping-but-not-contained interval must NOT be pruned.
  EXPECT_FALSE(table.CanPrune(Itemset({Item::Interval(1, 5.0, 12.0)})));
}

TEST(PruneTableTest, DifferentCategoricalValueNotPruned) {
  PruneTable table;
  table.Insert(Itemset({Item::Categorical(0, 1)}));
  EXPECT_FALSE(table.CanPrune(Itemset({Item::Categorical(0, 2)})));
}

TEST(PruneTableTest, MixedContainment) {
  PruneTable table;
  table.Insert(
      Itemset({Item::Categorical(0, 3), Item::Interval(1, 0.0, 4.0)}));
  // Specialization in both items -> pruned.
  EXPECT_TRUE(table.CanPrune(Itemset({Item::Categorical(0, 3),
                                      Item::Interval(1, 1.0, 2.0),
                                      Item::Categorical(2, 0)})));
  // Interval outside the region -> kept.
  EXPECT_FALSE(table.CanPrune(Itemset(
      {Item::Categorical(0, 3), Item::Interval(1, 3.0, 9.0)})));
}

TEST(PruneTableTest, EmptyTableNeverPrunes) {
  PruneTable table;
  EXPECT_FALSE(table.CanPrune(Itemset({Item::Categorical(0, 0)})));
}

TEST(PruneTableTest, CanPruneMatchesBruteForceContainment) {
  // The bucket index must answer exactly what a scan of every entry
  // answers. Attributes 0-2 are categorical and 3-5
  // continuous; bounds come from a small pool with shared endpoints,
  // -0.0 beside 0.0 and both infinities, so equal, nested, touching and
  // empty intervals all occur.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kBounds[] = {-kInf, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, kInf};
  util::Rng rng(21);
  auto random_itemset = [&](size_t size) {
    std::vector<uint32_t> attrs = rng.Permutation(6);
    std::vector<Item> items;
    for (size_t i = 0; i < size; ++i) {
      const int attr = static_cast<int>(attrs[i]);
      if (attr < 3) {
        items.push_back(Item::Categorical(attr, rng.NextBelow(2)));
        continue;
      }
      double lo = kBounds[rng.NextBelow(std::size(kBounds))];
      double hi = kBounds[rng.NextBelow(std::size(kBounds))];
      if (hi < lo) std::swap(lo, hi);
      items.push_back(Item::Interval(attr, lo, hi));
    }
    return Itemset(std::move(items));
  };
  size_t pruned = 0;
  size_t kept = 0;
  for (int trial = 0; trial < 200; ++trial) {
    PruneTable table;
    std::vector<Itemset> entries;
    const int64_t num_entries = rng.UniformInt(0, 30);
    for (int64_t e = 0; e < num_entries; ++e) {
      Itemset entry = random_itemset(1 + rng.NextBelow(3));
      table.Insert(entry);
      entries.push_back(std::move(entry));
    }
    ASSERT_EQ(table.size(), entries.size());
    for (int c = 0; c < 40; ++c) {
      Itemset candidate = random_itemset(1 + rng.NextBelow(5));
      const bool want = std::any_of(
          entries.begin(), entries.end(),
          [&](const Itemset& e) { return candidate.Specializes(e); });
      ASSERT_EQ(table.CanPrune(candidate), want) << candidate.Key();
      ++(want ? pruned : kept);
    }
  }
  // Both answers must be common, or the comparison proves little.
  EXPECT_GT(pruned, 1000u);
  EXPECT_GT(kept, 1000u);
}

TEST(BelowMinimumDeviationTest, AllBelowDelta) {
  EXPECT_TRUE(BelowMinimumDeviation({0.05, 0.09}, 0.1));
  EXPECT_FALSE(BelowMinimumDeviation({0.05, 0.30}, 0.1));
  EXPECT_FALSE(BelowMinimumDeviation({0.1, 0.05}, 0.1));  // 0.1 >= delta
}

TEST(LowExpectedCountTest, SmallCellsDetected) {
  // 4 matches out of 1000/1000: expected match count per group = 2 < 5.
  EXPECT_TRUE(LowExpectedCount({2, 2}, {1000, 1000}));
  EXPECT_FALSE(LowExpectedCount({300, 200}, {1000, 1000}));
}

TEST(StatisticallySameDifferenceTest, IdenticalDifferencesAreSame) {
  EXPECT_TRUE(StatisticallySameDifference(
      0.30, 0.30, {0.5, 0.2}, {500, 500}, 0.05));
}

TEST(StatisticallySameDifferenceTest, LargeDeviationDiffers) {
  EXPECT_FALSE(StatisticallySameDifference(
      0.60, 0.30, {0.5, 0.2}, {500, 500}, 0.05));
}

TEST(StatisticallySameDifferenceTest, WidthShrinksWithSampleSize) {
  // A deviation inside the bound for small groups falls outside it for
  // large groups (CLT: the standard error shrinks).
  double diff_curr = 0.34;
  double diff_sub = 0.30;
  std::vector<double> supports = {0.5, 0.2};
  EXPECT_TRUE(StatisticallySameDifference(diff_curr, diff_sub, supports,
                                          {200, 200}, 0.05));
  EXPECT_FALSE(StatisticallySameDifference(diff_curr, diff_sub, supports,
                                           {100000, 100000}, 0.05));
}

}  // namespace
}  // namespace sdadcs::core
