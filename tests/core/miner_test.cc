#include "core/miner.h"

#include <gtest/gtest.h>

#include "common/requests.h"
#include "synth/simulated.h"
#include "synth/uci_like.h"

namespace sdadcs::core {
namespace {

using test_support::GroupRequest;

MinerConfig BaseConfig() {
  MinerConfig cfg;
  cfg.alpha = 0.05;
  cfg.delta = 0.1;
  cfg.max_depth = 2;
  return cfg;
}

int MaxPatternSize(const MiningResult& r) {
  int mx = 0;
  for (const ContrastPattern& p : r.contrasts) {
    mx = std::max<int>(mx, static_cast<int>(p.itemset.size()));
  }
  return mx;
}

TEST(MinerTest, ValidatesConfig) {
  data::Dataset db = synth::MakeSimulated3(200);
  MinerConfig cfg = BaseConfig();
  cfg.alpha = 1.5;
  EXPECT_FALSE(Miner(cfg).Mine(db, GroupRequest("Group")).ok());
  cfg = BaseConfig();
  cfg.delta = 0.0;
  EXPECT_FALSE(Miner(cfg).Mine(db, GroupRequest("Group")).ok());
  cfg = BaseConfig();
  cfg.top_k = 0;
  EXPECT_FALSE(Miner(cfg).Mine(db, GroupRequest("Group")).ok());
}

TEST(MinerTest, UnknownGroupAttributeFails) {
  data::Dataset db = synth::MakeSimulated3(200);
  EXPECT_FALSE(
      Miner(BaseConfig()).Mine(db, GroupRequest("nope")).ok());
}

TEST(MinerTest, UnknownSelectedAttributeFails) {
  data::Dataset db = synth::MakeSimulated3(200);
  MinerConfig cfg = BaseConfig();
  cfg.attributes = {"ghost"};
  EXPECT_FALSE(Miner(cfg).Mine(db, GroupRequest("Group")).ok());
}

TEST(MinerTest, GroupAttributeCannotBeMined) {
  data::Dataset db = synth::MakeSimulated3(200);
  MinerConfig cfg = BaseConfig();
  cfg.attributes = {"Group"};
  EXPECT_FALSE(Miner(cfg).Mine(db, GroupRequest("Group")).ok());
}

TEST(MinerTest, Simulated1FindsOnlyTheSeparatingAttribute) {
  // Figure 3a: Attr1 < 0.5 separates perfectly. Both level-1 sides are
  // pure, so no 2-attribute contrast should survive.
  data::Dataset db = synth::MakeSimulated1(1000);
  Miner miner(BaseConfig());
  auto result = miner.Mine(db, GroupRequest("Group"));
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->contrasts.empty());
  EXPECT_EQ(MaxPatternSize(*result), 1);
  // The strongest patterns sit on the 0.5 boundary of some attribute.
  bool found_boundary = false;
  for (const ContrastPattern& p : result->contrasts) {
    const Item& it = p.itemset.item(0);
    if (p.purity >= 1.0 && (std::abs(it.lo - 0.5) < 0.05 ||
                            std::abs(it.hi - 0.5) < 0.05)) {
      found_boundary = true;
    }
  }
  EXPECT_TRUE(found_boundary);
}

TEST(MinerTest, Simulated2XorNeedsBothAttributes) {
  // Figure 3b: no univariate rule exists; the contrast is multivariate.
  data::Dataset db = synth::MakeSimulated2(1200);
  MinerConfig cfg = BaseConfig();
  cfg.measure = MeasureKind::kSurprising;
  Miner miner(cfg);
  auto result = miner.Mine(db, GroupRequest("Group"));
  ASSERT_TRUE(result.ok());
  bool has_bivariate = false;
  for (const ContrastPattern& p : result->contrasts) {
    if (p.itemset.size() == 2) has_bivariate = true;
  }
  EXPECT_TRUE(has_bivariate);

  // Each attribute alone yields nothing.
  for (const char* attr : {"Attr1", "Attr2"}) {
    MinerConfig solo = cfg;
    solo.attributes = {attr};
    auto r = Miner(solo).Mine(db, GroupRequest("Group"));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->contrasts.empty()) << attr;
  }
}

TEST(MinerTest, Simulated3NoHigherLevelContrasts) {
  // Figure 3c: only Attr1 matters; SDAD-CS reports level-1 contrasts
  // only (Cortana's meaningless level-2 boxes must not appear).
  data::Dataset db = synth::MakeSimulated3(1000);
  Miner miner(BaseConfig());
  auto result = miner.Mine(db, GroupRequest("Group"));
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->contrasts.empty());
  EXPECT_EQ(MaxPatternSize(*result), 1);
}

TEST(MinerTest, Simulated4FindsLevelTwoBlocks) {
  // Figure 3d: the structure lives at level 2.
  data::Dataset db = synth::MakeSimulated4(2000);
  MinerConfig cfg = BaseConfig();
  cfg.measure = MeasureKind::kSurprising;
  Miner miner(cfg);
  auto result = miner.Mine(db, GroupRequest("Group"));
  ASSERT_TRUE(result.ok());
  bool found_block = false;
  for (const ContrastPattern& p : result->contrasts) {
    if (p.itemset.size() == 2 && p.purity > 0.8) found_block = true;
  }
  EXPECT_TRUE(found_block);
}

TEST(MinerTest, NpModeEvaluatesMorePartitions) {
  data::Dataset db = synth::MakeSimulated4(1500);
  MinerConfig cfg = BaseConfig();
  auto pruned = Miner(cfg).Mine(db, GroupRequest("Group"));
  cfg.meaningful_pruning = false;
  auto np = Miner(cfg).Mine(db, GroupRequest("Group"));
  ASSERT_TRUE(pruned.ok());
  ASSERT_TRUE(np.ok());
  EXPECT_GE(np->counters.partitions_evaluated,
            pruned->counters.partitions_evaluated);
  EXPECT_EQ(np->counters.pruned_redundant, 0u);
  EXPECT_EQ(np->counters.pruned_pure, 0u);
}

TEST(MinerTest, DeterministicAcrossRuns) {
  data::Dataset db = synth::MakeSimulated4(800);
  Miner miner(BaseConfig());
  auto a = miner.Mine(db, GroupRequest("Group"));
  auto b = miner.Mine(db, GroupRequest("Group"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->contrasts.size(), b->contrasts.size());
  for (size_t i = 0; i < a->contrasts.size(); ++i) {
    EXPECT_EQ(a->contrasts[i].itemset.Key(), b->contrasts[i].itemset.Key());
    EXPECT_DOUBLE_EQ(a->contrasts[i].measure, b->contrasts[i].measure);
  }
}

TEST(MinerTest, ResultsSortedByMeasure) {
  data::Dataset db = synth::MakeSimulated4(1000);
  auto result =
      Miner(BaseConfig()).Mine(db, GroupRequest("Group"));
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->contrasts.size(); ++i) {
    EXPECT_GE(result->contrasts[i - 1].measure,
              result->contrasts[i].measure);
  }
}

TEST(MinerTest, AdultLikeYoungAgeBandIsPureBachelors) {
  synth::NamedDataset adult = synth::MakeAdultLike();
  MinerConfig cfg = BaseConfig();
  cfg.measure = MeasureKind::kPurityRatio;
  cfg.attributes = {"age", "hours_per_week"};
  Miner miner(cfg);
  auto result =
      miner.Mine(adult.db, GroupRequest(adult.group_attr, adult.groups));
  ASSERT_TRUE(result.ok());
  // Table 1, row 1: a low-age interval with zero Doctorate support.
  bool found = false;
  for (const ContrastPattern& p : result->contrasts) {
    if (p.itemset.size() != 1) continue;
    const Item& it = p.itemset.item(0);
    if (it.kind == Item::Kind::kInterval && it.hi <= 32.0 &&
        p.supports[0] == 0.0 && p.supports[1] > 0.05) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(MinerTest, MeanSupportDifferenceHelper) {
  MiningResult r;
  for (double d : {0.5, 0.3, 0.1}) {
    ContrastPattern p;
    p.diff = d;
    r.contrasts.push_back(p);
  }
  EXPECT_DOUBLE_EQ(r.MeanSupportDifference(2), 0.4);
  EXPECT_DOUBLE_EQ(r.MeanSupportDifference(100), 0.3);
  EXPECT_DOUBLE_EQ(MiningResult().MeanSupportDifference(10), 0.0);
}

// Epoch-ns-like integral values, far past 2^53: the root split must
// count every row, the rows at the column minimum included, so the
// lower half of the one split holds all of group A (support 1.000).
TEST(MinerTest, RootSplitCountsEveryRowOfHugeIntegralColumn) {
  data::DatasetBuilder b;
  const int g = b.AddCategorical("g");
  const int x = b.AddContinuous("x");
  for (int i = 0; i < 200; ++i) {
    b.AppendCategorical(g, i < 100 ? "A" : "B");
    b.AppendContinuous(x, 1.7e18 + 256.0 * i);
  }
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  MinerConfig cfg = BaseConfig();
  cfg.max_depth = 1;
  auto result = Miner(cfg).Mine(*db, GroupRequest("g"));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->contrasts.size(), 2u);
  double rows = 0.0;
  for (const ContrastPattern& p : result->contrasts) {
    ASSERT_EQ(p.counts.size(), 2u);
    EXPECT_EQ(p.counts[0] + p.counts[1], 100.0) << p.itemset.Key();
    EXPECT_EQ(std::max(p.supports[0], p.supports[1]), 1.0);
    rows += p.counts[0] + p.counts[1];
  }
  EXPECT_EQ(rows, 200.0);
}

}  // namespace
}  // namespace sdadcs::core
