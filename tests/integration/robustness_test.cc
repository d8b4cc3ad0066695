// Failure-injection / edge-case suite: degenerate columns, missing
// data, tiny groups, high-cardinality attributes, and k > 2 groups must
// never crash the miner and must keep its statistical contracts.

#include <string>

#include <gtest/gtest.h>

#include "common/requests.h"
#include "core/miner.h"
#include "core/support.h"
#include "util/logging.h"
#include "util/random.h"

namespace sdadcs {
namespace {

using core::ContrastPattern;
using core::Miner;
using core::MinerConfig;

using test_support::GroupRequest;

MinerConfig SmallConfig() {
  MinerConfig cfg;
  cfg.max_depth = 2;
  return cfg;
}

TEST(RobustnessTest, AllMissingContinuousColumn) {
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int x = b.AddContinuous("x");
  int dead = b.AddContinuous("dead");
  util::Rng rng(91);
  for (int i = 0; i < 300; ++i) {
    b.AppendCategorical(g, i % 2 == 0 ? "a" : "b");
    b.AppendContinuous(x, i % 2 == 0 ? rng.Uniform(0, 1)
                                     : rng.Uniform(1, 2));
    b.AppendMissing(dead);
  }
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  auto result = Miner(SmallConfig()).Mine(*db, GroupRequest("g"));
  ASSERT_TRUE(result.ok());
  // The live attribute still yields its contrast.
  EXPECT_FALSE(result->contrasts.empty());
  for (const ContrastPattern& p : result->contrasts) {
    for (const core::Item& it : p.itemset.items()) {
      EXPECT_NE(db->schema().attribute(it.attr).name, "dead");
    }
  }
}

TEST(RobustnessTest, ConstantColumnsHandled) {
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int flat_num = b.AddContinuous("flat_num");
  int flat_cat = b.AddCategorical("flat_cat");
  for (int i = 0; i < 200; ++i) {
    b.AppendCategorical(g, i % 2 == 0 ? "a" : "b");
    b.AppendContinuous(flat_num, 7.0);
    b.AppendCategorical(flat_cat, "only");
  }
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  auto result = Miner(SmallConfig()).Mine(*db, GroupRequest("g"));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->contrasts.empty());
}

TEST(RobustnessTest, HighCardinalityCategorical) {
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int id_like = b.AddCategorical("id_like");
  util::Rng rng(92);
  for (int i = 0; i < 500; ++i) {
    b.AppendCategorical(g, i % 2 == 0 ? "a" : "b");
    // 100 distinct values: every value is rare -> everything should be
    // pruned by minimum deviation / expected count, quickly.
    std::string value = "v";
    value += std::to_string(rng.NextBelow(100));
    b.AppendCategorical(id_like, value);
  }
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  auto result = Miner(SmallConfig()).Mine(*db, GroupRequest("g"));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->contrasts.empty());
  EXPECT_GT(result->counters.pruned_min_support +
                result->counters.pruned_low_expected,
            0u);
}

TEST(RobustnessTest, HeavilyImbalancedGroups) {
  // 2% anomaly group, like the manufacturing data.
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int x = b.AddContinuous("x");
  util::Rng rng(93);
  for (int i = 0; i < 3000; ++i) {
    bool rare = rng.Bernoulli(0.02);
    b.AppendCategorical(g, rare ? "rare" : "common");
    b.AppendContinuous(x, rare ? rng.Gaussian(8.0, 0.5)
                               : rng.Gaussian(0.0, 2.0));
  }
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  auto result = Miner(SmallConfig()).Mine(*db, GroupRequest("g"));
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->contrasts.empty());
  // Supports stay per-group: the rare group's pattern support is high
  // even though its absolute count is tiny.
  EXPECT_GT(result->contrasts.front().diff, 0.8);
}

TEST(RobustnessTest, ThreeGroupMining) {
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int x = b.AddContinuous("x");
  util::Rng rng(94);
  for (int i = 0; i < 900; ++i) {
    int which = i % 3;
    const char* names[] = {"low", "mid", "high"};
    b.AppendCategorical(g, names[which]);
    b.AppendContinuous(x, rng.Gaussian(4.0 * which, 1.0));
  }
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  auto result = Miner(SmallConfig()).Mine(*db, GroupRequest("g"));
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->contrasts.empty());
  for (const ContrastPattern& p : result->contrasts) {
    EXPECT_EQ(p.supports.size(), 3u);
    EXPECT_GT(p.diff, 0.1);
    EXPECT_LT(p.p_value, 0.05);
  }
}

TEST(RobustnessTest, SingleContinuousAttributeDepthBeyondAttrs) {
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int x = b.AddContinuous("x");
  util::Rng rng(95);
  for (int i = 0; i < 300; ++i) {
    double v = rng.NextDouble();
    b.AppendCategorical(g, v < 0.4 ? "a" : "b");
    b.AppendContinuous(x, v);
  }
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  MinerConfig cfg;
  cfg.max_depth = 5;  // more than the attribute count
  auto result = Miner(cfg).Mine(*db, GroupRequest("g"));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->contrasts.empty());
}

TEST(RobustnessTest, DuplicatedRowsDoNotBreakMedians) {
  // Massive ties: the "number of unique values far less than data
  // points" caveat from the paper's Eq. 6 discussion.
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int x = b.AddContinuous("x");
  for (int i = 0; i < 600; ++i) {
    int v = i % 3;  // only 3 distinct values
    b.AppendCategorical(g, v == 0 ? "a" : "b");
    b.AppendContinuous(x, static_cast<double>(v));
  }
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  auto result = Miner(SmallConfig()).Mine(*db, GroupRequest("g"));
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->contrasts.empty());
  // x = 0 exactly identifies group a.
  EXPECT_NEAR(result->contrasts.front().diff, 1.0, 0.01);
}

TEST(RobustnessTest, MinCoverageSuppressesSlivers) {
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int x = b.AddContinuous("x");
  util::Rng rng(96);
  for (int i = 0; i < 400; ++i) {
    double v = rng.NextDouble();
    b.AppendCategorical(g, v < 0.5 ? "a" : "b");
    b.AppendContinuous(x, v);
  }
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  MinerConfig cfg = SmallConfig();
  cfg.min_coverage = 150;
  auto result = Miner(cfg).Mine(*db, GroupRequest("g"));
  ASSERT_TRUE(result.ok());
  for (const ContrastPattern& p : result->contrasts) {
    double total = 0.0;
    for (double c : p.counts) total += c;
    EXPECT_GE(total, 150.0);
  }
}

TEST(RobustnessTest, EntropyPurityMeasureRuns) {
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int x = b.AddContinuous("x");
  util::Rng rng(97);
  for (int i = 0; i < 500; ++i) {
    double v = rng.NextDouble();
    b.AppendCategorical(g, v < 0.3 ? "a" : "b");
    b.AppendContinuous(x, v);
  }
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  MinerConfig cfg = SmallConfig();
  cfg.measure = core::MeasureKind::kEntropyPurity;
  auto result = Miner(cfg).Mine(*db, GroupRequest("g"));
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->contrasts.empty());
  // Pure boundary region must surface with measure near 1.
  EXPECT_GT(result->contrasts.front().measure, 0.8);
}

}  // namespace
}  // namespace sdadcs
