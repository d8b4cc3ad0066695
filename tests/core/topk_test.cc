#include "core/topk.h"

#include <gtest/gtest.h>

namespace sdadcs::core {
namespace {

ContrastPattern MakePattern(int attr, double measure) {
  ContrastPattern p;
  p.itemset = Itemset({Item::Categorical(attr, 0)});
  p.measure = measure;
  return p;
}

TEST(TopKTest, ThresholdIsFloorUntilFull) {
  TopK topk(3, 0.1);
  EXPECT_DOUBLE_EQ(topk.threshold(), 0.1);
  topk.Insert(MakePattern(0, 0.5));
  topk.Insert(MakePattern(1, 0.6));
  EXPECT_DOUBLE_EQ(topk.threshold(), 0.1);
  topk.Insert(MakePattern(2, 0.7));
  EXPECT_TRUE(topk.full());
  EXPECT_DOUBLE_EQ(topk.threshold(), 0.5);
}

TEST(TopKTest, EvictsWeakest) {
  TopK topk(2, 0.0);
  topk.Insert(MakePattern(0, 0.2));
  topk.Insert(MakePattern(1, 0.8));
  topk.Insert(MakePattern(2, 0.5));
  std::vector<ContrastPattern> sorted = topk.Sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_DOUBLE_EQ(sorted[0].measure, 0.8);
  EXPECT_DOUBLE_EQ(sorted[1].measure, 0.5);
}

TEST(TopKTest, RejectsWhenFullAndWeaker) {
  TopK topk(1, 0.0);
  EXPECT_TRUE(topk.Insert(MakePattern(0, 0.9)));
  EXPECT_FALSE(topk.Insert(MakePattern(1, 0.3)));
  EXPECT_EQ(topk.size(), 1u);
}

TEST(TopKTest, DeduplicatesByItemset) {
  TopK topk(5, 0.0);
  EXPECT_TRUE(topk.Insert(MakePattern(0, 0.5)));
  EXPECT_FALSE(topk.Insert(MakePattern(0, 0.9)));  // same itemset key
  EXPECT_EQ(topk.size(), 1u);
}

TEST(TopKTest, EvictedKeyCanReenter) {
  TopK topk(1, 0.0);
  topk.Insert(MakePattern(0, 0.2));
  topk.Insert(MakePattern(1, 0.8));  // evicts attr-0 pattern
  EXPECT_TRUE(topk.Insert(MakePattern(0, 0.9)));
  EXPECT_DOUBLE_EQ(topk.Sorted()[0].measure, 0.9);
}

TEST(TopKTest, VersionAndBestMeasureAreMonotone) {
  TopK topk(2, 0.0);
  EXPECT_EQ(topk.version(), 0u);
  EXPECT_DOUBLE_EQ(topk.best_measure(), 0.0);
  topk.Insert(MakePattern(0, 0.5));
  uint64_t v1 = topk.version();
  EXPECT_GT(v1, 0u);
  EXPECT_DOUBLE_EQ(topk.best_measure(), 0.5);
  // Rejected insert (duplicate key) leaves both untouched.
  topk.Insert(MakePattern(0, 0.9));
  EXPECT_EQ(topk.version(), v1);
  EXPECT_DOUBLE_EQ(topk.best_measure(), 0.5);
  // An accepted weaker pattern bumps the version but not the best.
  topk.Insert(MakePattern(1, 0.3));
  EXPECT_GT(topk.version(), v1);
  EXPECT_DOUBLE_EQ(topk.best_measure(), 0.5);
  // Eviction of the weakest never decreases best_measure.
  topk.Insert(MakePattern(2, 0.8));
  EXPECT_DOUBLE_EQ(topk.best_measure(), 0.8);
}

TEST(TopKTest, SortedIsDescending) {
  TopK topk(10, 0.0);
  for (int i = 0; i < 7; ++i) {
    topk.Insert(MakePattern(i, 0.1 * i));
  }
  std::vector<ContrastPattern> sorted = topk.Sorted();
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_GE(sorted[i - 1].measure, sorted[i].measure);
  }
}

}  // namespace
}  // namespace sdadcs::core
