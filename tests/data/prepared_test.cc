// PreparedDataset: lazy single-flight artifact construction, keyed group
// artifacts and byte accounting.

#include "data/prepared.h"

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "synth/uci_like.h"

namespace sdadcs::data {
namespace {

TEST(PreparedDatasetTest, GroupArtifactBuiltOnceUnderConcurrency) {
  synth::NamedDataset nd = synth::MakeUciLike("adult", /*seed=*/3);
  PreparedDataset prepared(&nd.db);

  // Two distinct specs of the same group attribute: the requested pair
  // and every value.
  const std::vector<std::vector<std::string>> specs = {nd.groups, {}};

  // Many threads race for every artifact; single-flight construction
  // must build each exactly once and hand everyone the same pointer.
  constexpr int kThreads = 8;
  std::vector<std::vector<const PreparedGroups*>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const std::vector<std::string>& values : specs) {
        auto pg = prepared.Groups(nd.group_attr, values);
        seen[t].push_back(pg.ok() ? pg->get() : nullptr);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < specs.size(); ++i) {
      ASSERT_NE(seen[t][i], nullptr);
      EXPECT_EQ(seen[t][i], seen[0][i]) << "thread " << t << " spec " << i;
    }
  }
  EXPECT_NE(seen[0][0], seen[0][1]);
  PreparedStats stats = prepared.stats();
  EXPECT_EQ(stats.group_builds, specs.size());
  EXPECT_EQ(stats.hits, kThreads * specs.size() - specs.size());
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(prepared.MemoryUsage(), stats.bytes);
}

TEST(PreparedDatasetTest, GroupArtifactCachedByKey) {
  synth::NamedDataset nd = synth::MakeUciLike("adult", /*seed=*/3);
  PreparedDataset prepared(&nd.db);

  auto first = prepared.Groups(nd.group_attr, nd.groups);
  ASSERT_TRUE(first.ok());
  auto second = prepared.Groups(nd.group_attr, nd.groups);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());

  auto all_values = prepared.Groups(nd.group_attr, {});
  ASSERT_TRUE(all_values.ok());
  EXPECT_NE(all_values->get(), first->get());

  PreparedStats stats = prepared.stats();
  EXPECT_EQ(stats.group_builds, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(PreparedDatasetTest, GroupArtifactCarriesSessionState) {
  synth::NamedDataset nd = synth::MakeUciLike("adult", /*seed=*/3);
  PreparedDataset prepared(&nd.db);
  auto pg = prepared.Groups(nd.group_attr, nd.groups);
  ASSERT_TRUE(pg.ok());
  const PreparedGroups& art = **pg;

  const int group_attr = art.groups.group_attr();
  for (int attr : art.attributes) EXPECT_NE(attr, group_attr);
  EXPECT_EQ(art.attributes.size(), nd.db.num_attributes() - 1);

  ASSERT_EQ(art.group_sizes.size(),
            static_cast<size_t>(art.groups.num_groups()));
  for (int g = 0; g < art.groups.num_groups(); ++g) {
    EXPECT_EQ(art.group_sizes[g],
              static_cast<double>(art.groups.group_size(g)));
  }

  for (int attr : art.attributes) {
    if (!nd.db.is_continuous(attr)) continue;
    auto it = art.root_bounds.find(attr);
    ASSERT_NE(it, art.root_bounds.end());
    RootBounds reference =
        ComputeRootBounds(nd.db, attr, art.groups.base_selection());
    EXPECT_EQ(it->second.lo, reference.lo);
    EXPECT_EQ(it->second.hi, reference.hi);
    EXPECT_EQ(it->second.any_missing, reference.any_missing);
  }
}

TEST(PreparedDatasetTest, GroupFailureIsNotCached) {
  synth::NamedDataset nd = synth::MakeUciLike("adult", /*seed=*/3);
  PreparedDataset prepared(&nd.db);

  auto bad = prepared.Groups(nd.group_attr, {"no-such-value", "other"});
  EXPECT_FALSE(bad.ok());
  auto bad_again = prepared.Groups(nd.group_attr, {"no-such-value", "other"});
  EXPECT_FALSE(bad_again.ok());
  EXPECT_EQ(prepared.stats().group_builds, 0u);

  auto missing_attr = prepared.Groups("no-such-attribute", {});
  EXPECT_FALSE(missing_attr.ok());

  // A failed spec must not poison the slot for a later valid request.
  auto good = prepared.Groups(nd.group_attr, nd.groups);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(prepared.stats().group_builds, 1u);
}

// One continuous column holding `values`.
Dataset OneColumn(const std::vector<double>& values) {
  DatasetBuilder b;
  const int x = b.AddContinuous("x");
  for (double v : values) b.AppendContinuous(x, v);
  auto db = std::move(b).Build();
  EXPECT_TRUE(db.ok());
  return std::move(db).value();
}

constexpr double kMinusInf = -std::numeric_limits<double>::infinity();

// From 2^53 on, min - 1 rounds back to the minimum (epoch-ns timestamps
// sit near 2^60, where doubles are 256 apart). The bound falls to the
// next double below, so (lo, hi] still holds the rows at the minimum.
TEST(ComputeRootBoundsTest, LowerBoundBelowHugeIntegralMinimum) {
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(1.7e18 + 256.0 * i);
  const Dataset db = OneColumn(values);
  const RootBounds rb = ComputeRootBounds(db, 0, Selection::All(200));
  ASSERT_EQ(1.7e18 - 1.0, 1.7e18);  // the step the bound used to take
  EXPECT_LT(rb.lo, 1.7e18);
  EXPECT_EQ(rb.lo, std::nextafter(1.7e18, kMinusInf));
  EXPECT_EQ(rb.hi, values.back());
  EXPECT_FALSE(rb.any_missing);
}

// A fractional column whose range is tiny next to its magnitude: the
// 1e-9·range step is below half an ulp of the minimum.
TEST(ComputeRootBoundsTest, LowerBoundBelowFractionalMinimumWithTinyRange) {
  const double min = 12345.678;
  const double max = std::nextafter(std::nextafter(min, 1e9), 1e9);
  const Dataset db = OneColumn({max, min, max});
  const RootBounds rb = ComputeRootBounds(db, 0, Selection::All(3));
  EXPECT_LT(rb.lo, min);
  EXPECT_EQ(rb.lo, std::nextafter(min, kMinusInf));
  EXPECT_EQ(rb.hi, max);
}

// Where the steps do move the bound, they still set it.
TEST(ComputeRootBoundsTest, OrdinaryStepsUnchanged) {
  RootBounds rb = ComputeRootBounds(OneColumn({3.0, 9.0}), 0,
                                    Selection::All(2));
  EXPECT_EQ(rb.lo, 2.0);
  rb = ComputeRootBounds(OneColumn({0.5, 2.5}), 0, Selection::All(2));
  EXPECT_EQ(rb.lo, 0.5 - 1e-9 * 2.0);
}

}  // namespace
}  // namespace sdadcs::data
