#include "core/sdad.h"

#include <memory>

#include <gtest/gtest.h>

#include "core/support.h"
#include "stats/chi_squared.h"
#include "util/logging.h"
#include "util/random.h"

namespace sdadcs::core {
namespace {

// Owns every piece of a MiningContext for direct RunSdadCs tests.
class Harness {
 public:
  Harness(data::Dataset db, MinerConfig cfg)
      : db_(std::move(db)), cfg_(cfg), topk_(cfg.top_k, cfg.delta) {
    auto gi = data::GroupInfo::Create(db_, 0);
    SDADCS_CHECK(gi.ok());
    gi_ = std::make_unique<data::GroupInfo>(std::move(gi).value());
    ctx_.db = &db_;
    ctx_.gi = gi_.get();
    ctx_.cfg = &cfg_;
    ctx_.prune_table = &table_;
    ctx_.topk = &topk_;
    ctx_.counters = &counters_;
    ctx_.group_sizes = GroupSizes(*gi_);
    for (size_t a = 0; a < db_.num_attributes(); ++a) {
      if (db_.is_continuous(static_cast<int>(a))) {
        ctx_.root_bounds[static_cast<int>(a)] = ComputeRootBounds(
            db_, static_cast<int>(a), gi_->base_selection());
      }
    }
  }

  MiningContext& ctx() { return ctx_; }
  const data::Dataset& db() const { return db_; }
  PruneTable& table() { return table_; }
  MiningCounters& counters() { return counters_; }

  // The base selection's counts: its per-group counts are the group
  // sizes.
  GroupCounts BaseCounts() const { return GroupCounts{GroupSizes(*gi_)}; }

  // Runs SDAD-CS and files the run's prune entries, as a commit does.
  std::vector<ContrastPattern> Run(const std::vector<int>& cont_attrs) {
    SdadCall call = MakeRootCall(ctx_, Itemset(), cont_attrs,
                                 gi_->base_selection(), BaseCounts());
    std::vector<ContrastPattern> patterns = RunSdadCs(ctx_, call);
    for (const Itemset& entry : ctx_.combo.prune_entries) {
      table_.Insert(entry);
    }
    ctx_.combo = ComboLog();
    return patterns;
  }

 private:
  data::Dataset db_;
  MinerConfig cfg_;
  std::unique_ptr<data::GroupInfo> gi_;
  PruneTable table_;
  TopK topk_;
  MiningCounters counters_;
  MiningContext ctx_;
};

// One continuous attribute; group "a" occupies (threshold, 100].
data::Dataset MakeSeparable1D(int n, double threshold) {
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int x = b.AddContinuous("x");
  util::Rng rng(5);
  for (int i = 0; i < n; ++i) {
    double v = rng.Uniform(0.0, 100.0);
    b.AppendCategorical(g, v > threshold ? "a" : "b");
    b.AppendContinuous(x, v);
  }
  auto db = std::move(b).Build();
  SDADCS_CHECK(db.ok());
  return std::move(db).value();
}

// Deterministic grid where the class boundary coincides with the
// median: x = 0..399, group b below 200, group a at and above.
data::Dataset MakeMedianAligned() {
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int x = b.AddContinuous("x");
  for (int i = 0; i < 400; ++i) {
    b.AppendCategorical(g, i < 200 ? "b" : "a");
    b.AppendContinuous(x, i);
  }
  auto db = std::move(b).Build();
  SDADCS_CHECK(db.ok());
  return std::move(db).value();
}

TEST(SdadTest, PerfectSplitYieldsTwoPureCells) {
  MinerConfig cfg;
  Harness h(MakeMedianAligned(), cfg);
  std::vector<ContrastPattern> patterns = h.Run({1});
  ASSERT_EQ(patterns.size(), 2u);
  for (const ContrastPattern& p : patterns) {
    EXPECT_DOUBLE_EQ(p.purity, 1.0);
    EXPECT_LT(p.p_value, 1e-10);
  }
}

TEST(SdadTest, PureCellsBlockExtensions) {
  MinerConfig cfg;
  Harness h(MakeSeparable1D(400, 50.0), cfg);
  h.Run({1});
  EXPECT_GT(h.counters().pruned_pure, 0u);
  // Any sub-interval of a pure side, with more items, must now be
  // prunable via the lookup table.
  Itemset extension({Item::Interval(1, 60.0, 70.0),
                     Item::Categorical(0, 0)});
  EXPECT_TRUE(h.table().CanPrune(extension));
}

TEST(SdadTest, NoContrastReturnsEmpty) {
  // Group labels independent of x -> nothing to find.
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int x = b.AddContinuous("x");
  util::Rng rng(6);
  for (int i = 0; i < 400; ++i) {
    b.AppendCategorical(g, rng.Bernoulli(0.5) ? "a" : "b");
    b.AppendContinuous(x, rng.Uniform(0.0, 100.0));
  }
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  MinerConfig cfg;
  Harness h(std::move(db).value(), cfg);
  EXPECT_TRUE(h.Run({1}).empty());
}

TEST(SdadTest, OffMedianBoundaryFoundByRecursion) {
  // The boundary at 75 is not the first median (50); recursion must
  // refine into the right half to isolate it.
  MinerConfig cfg;
  cfg.sdad_max_level = 5;
  Harness h(MakeSeparable1D(800, 75.0), cfg);
  std::vector<ContrastPattern> patterns = h.Run({1});
  ASSERT_FALSE(patterns.empty());
  // Medians land near, not exactly on, 75, so demand a high-purity
  // pattern whose lower edge sits in the boundary's neighbourhood.
  bool found_tight = false;
  for (const ContrastPattern& p : patterns) {
    const Item& it = p.itemset.item(0);
    if (p.purity >= 0.85 && it.lo >= 62.0 && it.lo <= 83.0) {
      found_tight = true;
    }
  }
  EXPECT_TRUE(found_tight);
  EXPECT_GT(h.counters().sdad_calls, 1u);
}

TEST(SdadTest, CountersTrackEvaluations) {
  MinerConfig cfg;
  Harness h(MakeSeparable1D(400, 50.0), cfg);
  h.Run({1});
  EXPECT_GE(h.counters().partitions_evaluated, 2u);
  EXPECT_GE(h.counters().sdad_calls, 1u);
}

TEST(SdadTest, MakeRootCallFiltersMissingRowsOnlyWhereAnAttributeHasThem) {
  // x misses two values, y none.
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int x = b.AddContinuous("x");
  int y = b.AddContinuous("y");
  for (int i = 0; i < 10; ++i) {
    b.AppendCategorical(g, i % 2 == 0 ? "a" : "b");
    if (i < 2) {
      b.AppendMissing(x);
    } else {
      b.AppendContinuous(x, i);
    }
    b.AppendContinuous(y, -i);
  }
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  MinerConfig cfg;
  Harness h(std::move(db).value(), cfg);
  const data::Selection& base = h.ctx().gi->base_selection();

  std::vector<int> missing_attrs;
  SdadCall call = MakeRootCall(h.ctx(), Itemset(), {x, y}, base,
                               h.BaseCounts(), &missing_attrs);
  EXPECT_EQ(call.space.rows.size(), 8u);  // 2 missing excluded
  EXPECT_EQ(missing_attrs, std::vector<int>{x});
  EXPECT_DOUBLE_EQ(call.outer_db_size, 8.0);
  // One of the dropped rows is in each group.
  EXPECT_EQ(call.parent_supports, (std::vector<double>{0.8, 0.8}));
  EXPECT_DOUBLE_EQ(call.parent_diff, 0.0);
  EXPECT_DOUBLE_EQ(call.parent_measure, 0.0);
  ASSERT_EQ(call.space.bounds.size(), 2u);
  EXPECT_EQ(call.space.bounds[0].attr, x);
  EXPECT_EQ(call.space.bounds[1].attr, y);

  // Without a missing value the prefix's cover and counts are the root's
  // as given, unscanned.
  const data::Selection prefix(std::vector<uint32_t>{0, 1, 2, 4});
  const GroupCounts prefix_counts{{3.0, 1.0}};
  call = MakeRootCall(h.ctx(), Itemset(), {y}, prefix, prefix_counts,
                      &missing_attrs);
  EXPECT_TRUE(missing_attrs.empty());
  EXPECT_EQ(call.space.rows.rows(), prefix.rows());
  EXPECT_DOUBLE_EQ(call.outer_db_size, 4.0);
  EXPECT_EQ(call.parent_supports, (std::vector<double>{0.6, 0.2}));
  EXPECT_DOUBLE_EQ(call.parent_diff, 0.4);
}

// The critical-value memo keys on the exact alpha: alphas below 1e-12,
// which a tiny configured alpha reaches through the per-level halving,
// must not share an entry.
TEST(ChiCriticalTest, DistinctAlphasNeverShareAnEntry) {
  MiningContext ctx;
  for (double alpha : {5e-14, 2.5e-14, 1.25e-14, 0.05, 0.025}) {
    for (int dof : {1, 2}) {
      EXPECT_EQ(ctx.ChiCritical(alpha, dof),
                stats::ChiSquaredCritical(alpha, dof))
          << "alpha " << alpha << " dof " << dof;
    }
  }
}

TEST(MergeTest, SimilarNeighborsMerge) {
  MinerConfig cfg;
  Harness h(MakeSeparable1D(400, 50.0), cfg);
  MiningContext& ctx = h.ctx();

  auto make = [&](double lo, double hi, double ca, double cb) {
    ContrastPattern p;
    p.itemset = Itemset({Item::Interval(1, lo, hi)});
    p.counts = {ca, cb};
    p.ComputeStats(*ctx.gi, ctx.cfg->measure);
    p.hypervolume = (hi - lo) / 100.0;
    return p;
  };
  // Two adjacent intervals with nearly identical group distributions
  // (both strongly "a"): should merge into one (0,50].
  std::vector<ContrastPattern> patterns = {make(0, 25, 90, 5),
                                           make(25, 50, 85, 6)};
  MergeContiguousSpaces(ctx, &patterns);
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_DOUBLE_EQ(patterns[0].itemset.item(0).lo, 0.0);
  EXPECT_DOUBLE_EQ(patterns[0].itemset.item(0).hi, 50.0);
  EXPECT_DOUBLE_EQ(patterns[0].counts[0], 175.0);
  EXPECT_GT(h.counters().merges, 0u);
}

TEST(MergeTest, DissimilarNeighborsDoNotMerge) {
  MinerConfig cfg;
  Harness h(MakeSeparable1D(400, 50.0), cfg);
  MiningContext& ctx = h.ctx();
  auto make = [&](double lo, double hi, double ca, double cb) {
    ContrastPattern p;
    p.itemset = Itemset({Item::Interval(1, lo, hi)});
    p.counts = {ca, cb};
    p.ComputeStats(*ctx.gi, ctx.cfg->measure);
    p.hypervolume = (hi - lo) / 100.0;
    return p;
  };
  // Opposite-dominance neighbors must stay apart.
  std::vector<ContrastPattern> patterns = {make(0, 50, 90, 5),
                                           make(50, 100, 5, 90)};
  MergeContiguousSpaces(ctx, &patterns);
  EXPECT_EQ(patterns.size(), 2u);
}

TEST(MergeTest, MergeAlphaControlsAggressiveness) {
  // Two adjacent regions whose distributions differ mildly: a strict
  // merge alpha (large alpha_r -> easy to call "different") keeps them
  // apart, a loose one merges them.
  auto make_patterns = [](MiningContext& ctx) {
    auto make = [&](double lo, double hi, double ca, double cb) {
      ContrastPattern p;
      p.itemset = Itemset({Item::Interval(1, lo, hi)});
      p.counts = {ca, cb};
      p.ComputeStats(*ctx.gi, ctx.cfg->measure);
      p.hypervolume = (hi - lo) / 100.0;
      return p;
    };
    return std::vector<ContrastPattern>{make(0, 25, 90, 20),
                                        make(25, 50, 75, 34)};
  };
  {
    MinerConfig cfg;
    cfg.merge_alpha = 0.3;  // strict: mild differences block merging
    Harness h(MakeSeparable1D(400, 50.0), cfg);
    std::vector<ContrastPattern> patterns = make_patterns(h.ctx());
    MergeContiguousSpaces(h.ctx(), &patterns);
    EXPECT_EQ(patterns.size(), 2u);
  }
  {
    MinerConfig cfg;
    cfg.merge_alpha = 0.001;  // loose: merge unless wildly different
    Harness h(MakeSeparable1D(400, 50.0), cfg);
    std::vector<ContrastPattern> patterns = make_patterns(h.ctx());
    MergeContiguousSpaces(h.ctx(), &patterns);
    EXPECT_EQ(patterns.size(), 1u);
  }
}

TEST(MergeTest, MergeAlphaDefaultsToAlpha) {
  MinerConfig cfg;
  cfg.alpha = 0.07;
  EXPECT_DOUBLE_EQ(cfg.MergeAlpha(), 0.07);
  cfg.merge_alpha = 0.2;
  EXPECT_DOUBLE_EQ(cfg.MergeAlpha(), 0.2);
}

TEST(MergeTest, NonAdjacentNeverMerge) {
  MinerConfig cfg;
  Harness h(MakeSeparable1D(400, 50.0), cfg);
  MiningContext& ctx = h.ctx();
  auto make = [&](double lo, double hi) {
    ContrastPattern p;
    p.itemset = Itemset({Item::Interval(1, lo, hi)});
    p.counts = {80, 6};
    p.ComputeStats(*ctx.gi, ctx.cfg->measure);
    p.hypervolume = (hi - lo) / 100.0;
    return p;
  };
  std::vector<ContrastPattern> patterns = {make(0, 20), make(40, 60)};
  MergeContiguousSpaces(ctx, &patterns);
  EXPECT_EQ(patterns.size(), 2u);
}

}  // namespace
}  // namespace sdadcs::core
