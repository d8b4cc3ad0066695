#include "core/productivity.h"

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/search.h"
#include "core/support.h"
#include "stats/chi_squared.h"
#include "stats/contingency.h"
#include "stats/fisher.h"
#include "util/logging.h"
#include "util/random.h"

namespace sdadcs::core {
namespace {

// A dataset with two categorical attributes u, v and group g designed so
// that:
//  - u=hit alone is a mild contrast;
//  - v=hit alone is a mild contrast;
//  - in the "dependent" variant, u=hit & v=hit co-occur in group a far
//    beyond independence (productive conjunction);
//  - in the "independent" variant, u and v are independent within each
//    group (unproductive conjunction).
data::Dataset MakeDb(bool dependent, int n = 2000) {
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int u = b.AddCategorical("u");
  int v = b.AddCategorical("v");
  util::Rng rng(31);
  for (int i = 0; i < n; ++i) {
    bool in_a = i % 2 == 0;
    b.AppendCategorical(g, in_a ? "a" : "b");
    double pu = in_a ? 0.5 : 0.3;
    bool u_hit = rng.Bernoulli(pu);
    bool v_hit;
    if (dependent && in_a) {
      // Inside group a, v follows u tightly.
      v_hit = u_hit ? rng.Bernoulli(0.9) : rng.Bernoulli(0.1);
    } else {
      v_hit = rng.Bernoulli(in_a ? 0.5 : 0.3);
    }
    b.AppendCategorical(u, u_hit ? "hit" : "miss");
    b.AppendCategorical(v, v_hit ? "hit" : "miss");
  }
  auto db = std::move(b).Build();
  SDADCS_CHECK(db.ok());
  return std::move(db).value();
}

class Harness {
 public:
  explicit Harness(data::Dataset db)
      : db_(std::move(db)), topk_(100, 0.1) {
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
  }

  MiningContext& ctx() { return ctx_; }
  TopK& topk() { return topk_; }
  const data::Dataset& db() const { return db_; }
  const data::GroupInfo& gi() const { return *gi_; }

  ContrastPattern PatternFor(const Itemset& itemset) {
    ContrastPattern p;
    p.itemset = itemset;
    GroupCounts gc =
        CountMatches(db_, *gi_, itemset, gi_->base_selection());
    p.counts = gc.counts;
    p.ComputeStats(*gi_, MeasureKind::kSupportDiff);
    return p;
  }

  Itemset BothHits() {
    return Itemset(
        {Item::Categorical(1, db_.categorical(1).CodeOf("hit")),
         Item::Categorical(2, db_.categorical(2).CodeOf("hit"))});
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

TEST(IsProductiveTest, SingletonAlwaysProductive) {
  Harness h(MakeDb(true));
  ContrastPattern p = h.PatternFor(
      Itemset({Item::Categorical(1, h.db().categorical(1).CodeOf("hit"))}));
  EXPECT_TRUE(IsProductive(h.ctx(), p));
}

TEST(IsProductiveTest, DependentConjunctionIsProductive) {
  Harness h(MakeDb(true));
  ContrastPattern p = h.PatternFor(h.BothHits());
  EXPECT_TRUE(IsProductive(h.ctx(), p));
}

TEST(IsProductiveTest, IndependentConjunctionIsNot) {
  Harness h(MakeDb(false));
  ContrastPattern p = h.PatternFor(h.BothHits());
  EXPECT_FALSE(IsProductive(h.ctx(), p));
}

// Attributes of the missing-value data below, after the group (0).
constexpr int kU = 1;
constexpr int kV = 2;
constexpr int kZ = 3;
constexpr int kW = 4;

// Two categorical (u, v) and two continuous (z, w) attributes, each
// missing in about a tenth of the rows. Within group a, v follows u and
// z rises with u; w is noise.
data::Dataset MakeMissingDb() {
  data::DatasetBuilder b;
  b.AddCategorical("g");
  b.AddCategorical("u");
  b.AddCategorical("v");
  b.AddContinuous("z");
  b.AddContinuous("w");
  util::Rng rng(41);
  for (int i = 0; i < 3000; ++i) {
    const bool in_a = i % 2 == 0;
    b.AppendCategorical(0, in_a ? "a" : "b");
    const bool u_hit = rng.Bernoulli(in_a ? 0.5 : 0.3);
    const bool v_hit = in_a ? rng.Bernoulli(u_hit ? 0.8 : 0.2)
                            : rng.Bernoulli(0.35);
    const double z = in_a && u_hit ? rng.Uniform(3.0, 10.0)
                                   : rng.Uniform(0.0, 10.0);
    for (auto [attr, hit] : {std::pair{kU, u_hit}, std::pair{kV, v_hit}}) {
      if (rng.Bernoulli(0.1)) {
        b.AppendMissing(attr);
      } else {
        b.AppendCategorical(attr, hit ? "hit" : "miss");
      }
    }
    for (auto [attr, value] :
         {std::pair{kZ, z}, std::pair{kW, rng.Uniform(0.0, 10.0)}}) {
      if (rng.Bernoulli(0.1)) {
        b.AppendMissing(attr);
      } else {
        b.AppendContinuous(attr, value);
      }
    }
  }
  auto db = std::move(b).Build();
  SDADCS_CHECK(db.ok());
  return std::move(db).value();
}

// IsProductive's verdict and its count of dependence tests, computed
// without any memo: supports by CountMatches, and every 2x2 table by
// looping the base rows of the dominant group with Itemset::Matches.
struct OracleVerdict {
  bool productive = true;
  uint64_t tests = 0;
};

OracleVerdict OracleIsProductive(const data::Dataset& db,
                                 const data::GroupInfo& gi, double alpha,
                                 const ContrastPattern& pattern) {
  OracleVerdict out;
  const size_t n = pattern.itemset.size();
  if (n < 2) return out;
  size_t gx = 0;
  size_t gy = 0;
  for (size_t g = 1; g < pattern.supports.size(); ++g) {
    if (pattern.supports[g] > pattern.supports[gx]) gx = g;
    if (pattern.supports[g] < pattern.supports[gy]) gy = g;
  }
  auto supports = [&](const Itemset& is) {
    return CountMatches(db, gi, is, gi.base_selection()).Supports(gi);
  };
  const uint32_t full = (1u << n) - 1;
  for (uint32_t mask = 1; mask < full; mask += 2) {
    std::vector<Item> part_a;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) part_a.push_back(pattern.itemset.item(i));
    }
    const Itemset a(std::move(part_a));
    const Itemset b = pattern.itemset.Complement(a);
    const std::vector<double> sa = supports(a);
    const std::vector<double> sb = supports(b);
    if (pattern.diff <= sa[gx] * sb[gx] - sa[gy] * sb[gy]) {
      out.productive = false;
      return out;
    }
    double cell[2][2] = {{0.0, 0.0}, {0.0, 0.0}};  // [!a/a][!b/b]
    for (uint32_t r : gi.base_selection()) {
      if (gi.group_of(r) != static_cast<int>(gx)) continue;
      cell[a.Matches(db, r) ? 1 : 0][b.Matches(db, r) ? 1 : 0] += 1.0;
    }
    const double n11 = cell[1][1];
    const double n10 = cell[1][0];
    const double n01 = cell[0][1];
    const double n00 = cell[0][0];
    const double total = n11 + n10 + n01 + n00;
    if (total <= 0.0 || n11 <= (n11 + n10) * (n11 + n01) / total) {
      out.productive = false;
      return out;
    }
    stats::ContingencyTable t(2, 2);
    t.set_cell(0, 0, n11);
    t.set_cell(0, 1, n10);
    t.set_cell(1, 0, n01);
    t.set_cell(1, 1, n00);
    ++out.tests;
    bool dependent;
    if (t.MinExpected() < 5.0) {
      dependent = stats::FisherExactGreater(static_cast<long long>(n11),
                                            static_cast<long long>(n10),
                                            static_cast<long long>(n01),
                                            static_cast<long long>(n00)) <
                  alpha;
    } else {
      stats::ChiSquaredResult res = stats::ChiSquaredTest(t);
      dependent = res.valid && res.p_value < alpha;
    }
    if (!dependent) {
      out.productive = false;
      return out;
    }
  }
  return out;
}

// Every 2- and 3-item pattern over u, v, z and w (one item per
// attribute, two values or halves each).
std::vector<Itemset> MissingDbPatterns(const data::Dataset& db) {
  std::vector<std::vector<Item>> by_attr;
  for (int attr : {kU, kV}) {
    by_attr.push_back(
        {Item::Categorical(attr, db.categorical(attr).CodeOf("hit")),
         Item::Categorical(attr, db.categorical(attr).CodeOf("miss"))});
  }
  for (int attr : {kZ, kW}) {
    by_attr.push_back(
        {Item::Interval(attr, -1.0, 5.0), Item::Interval(attr, 5.0, 11.0)});
  }
  std::vector<Itemset> out;
  const size_t num_attrs = by_attr.size();
  for (uint32_t attrs = 0; attrs < (1u << num_attrs); ++attrs) {
    const int size = __builtin_popcount(attrs);
    if (size < 2 || size > 3) continue;
    for (uint32_t pick = 0; pick < (1u << size); ++pick) {
      std::vector<Item> items;
      int bit = 0;
      for (size_t k = 0; k < num_attrs; ++k) {
        if ((attrs & (1u << k)) == 0) continue;
        items.push_back(by_attr[k][(pick >> bit++) & 1u]);
      }
      out.push_back(Itemset(std::move(items)));
    }
  }
  return out;
}

// The 2x2 tables IsProductive derives from memoized counts equal the
// tables a row loop builds, missing values included (a missing value
// matches no item, so its row falls in a "not" cell): same verdict, same
// number of dependence tests, on both kernel paths, with a cold memo
// (ClassifyPatterns' case) and with one a search has seeded.
TEST(IsProductiveTest, AgreesWithRowLoopOracleOnMissingValues) {
  for (bool simd : {false, true}) {
    for (bool seeded : {false, true}) {
      SCOPED_TRACE(std::string(simd ? "simd" : "scalar") +
                   (seeded ? " seeded" : " cold"));
      Harness h(MakeMissingDb());
      h.ctx().simd = simd;
      std::vector<ContrastPattern> patterns;
      for (const Itemset& is : MissingDbPatterns(h.db())) {
        patterns.push_back(h.PatternFor(is));
      }
      if (seeded) {
        // The search case: a lattice search seeds the memo with the
        // counts it computed (item covers, prefixes, SDAD-CS cells)
        // before any check below reads it, and its patterns join them.
        for (int attr : {kZ, kW}) {
          h.ctx().root_bounds[attr] = ComputeRootBounds(
              h.db(), attr, h.gi().base_selection());
        }
        LatticeSearch(h.ctx()).Run({kU, kV, kZ, kW});
        for (const ContrastPattern& p : h.topk().Sorted()) {
          if (p.itemset.size() >= 2) patterns.push_back(p);
        }
      }
      size_t productive = 0;
      for (const ContrastPattern& p : patterns) {
        const OracleVerdict want =
            OracleIsProductive(h.db(), h.gi(), h.ctx().cfg->alpha, p);
        const uint64_t before = h.ctx().counters->chi2_tests;
        const bool got = IsProductive(h.ctx(), p);
        EXPECT_EQ(got, want.productive) << p.itemset.Key();
        EXPECT_EQ(h.ctx().counters->chi2_tests - before, want.tests)
            << p.itemset.Key();
        if (got) ++productive;
      }
      EXPECT_GT(productive, 0u);
      EXPECT_LT(productive, patterns.size());
    }
  }
}

TEST(IsRedundantAgainstSubsetsTest, FunctionalDependencyDetected) {
  // pregnant => female: {female, pregnant} has exactly the supports of
  // {pregnant} -> redundant (the paper's Section 4.3 example).
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int sex = b.AddCategorical("sex");
  int preg = b.AddCategorical("pregnant");
  util::Rng rng(33);
  for (int i = 0; i < 1200; ++i) {
    bool in_a = i % 3 == 0;
    b.AppendCategorical(g, in_a ? "a" : "b");
    bool female = rng.Bernoulli(0.5);
    b.AppendCategorical(sex, female ? "female" : "male");
    bool pregnant = female && rng.Bernoulli(in_a ? 0.6 : 0.2);
    b.AppendCategorical(preg, pregnant ? "yes" : "no");
  }
  auto db_or = std::move(b).Build();
  ASSERT_TRUE(db_or.ok());
  Harness h(std::move(db_or).value());

  Itemset both({Item::Categorical(1, h.db().categorical(1).CodeOf("female")),
                Item::Categorical(2, h.db().categorical(2).CodeOf("yes"))});
  ContrastPattern p = h.PatternFor(both);
  EXPECT_TRUE(IsRedundantAgainstSubsets(h.ctx(), p));

  // The standalone "pregnant" pattern is not redundant.
  ContrastPattern single = h.PatternFor(Itemset(
      {Item::Categorical(2, h.db().categorical(2).CodeOf("yes"))}));
  EXPECT_FALSE(IsRedundantAgainstSubsets(h.ctx(), single));
}

TEST(FilterIndependentlyProductiveTest, ExplainedParentDropped) {
  // All of u=hit's contrast in group a comes through v=hit (dependent
  // variant): once {u=hit, v=hit} is in the list, u=hit's residual
  // should decide its fate; craft an extreme case where residual rows
  // carry no signal.
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int u = b.AddCategorical("u");
  int v = b.AddCategorical("v");
  util::Rng rng(37);
  for (int i = 0; i < 2000; ++i) {
    bool in_a = i % 2 == 0;
    b.AppendCategorical(g, in_a ? "a" : "b");
    // v=hit is the real signal; u=hit occurs exactly when v=hit plus
    // noise calibrated so P(u & !v) = 0.10 in BOTH groups — the residual
    // of u=hit outside the conjunction carries no contrast at all.
    bool v_hit = rng.Bernoulli(in_a ? 0.6 : 0.15);
    bool u_hit = v_hit || rng.Bernoulli(in_a ? 0.10 / 0.40 : 0.10 / 0.85);
    b.AppendCategorical(u, u_hit ? "hit" : "miss");
    b.AppendCategorical(v, v_hit ? "hit" : "miss");
  }
  auto db_or = std::move(b).Build();
  ASSERT_TRUE(db_or.ok());
  Harness h(std::move(db_or).value());

  Itemset u_only(
      {Item::Categorical(1, h.db().categorical(1).CodeOf("hit"))});
  ContrastPattern parent = h.PatternFor(u_only);
  ContrastPattern child = h.PatternFor(h.BothHits());
  std::vector<ContrastPattern> patterns = {parent, child};
  std::vector<ContrastPattern> kept =
      FilterIndependentlyProductive(h.ctx(), std::move(patterns));
  // u=hit minus the conjunction leaves only noise rows -> dropped; the
  // conjunction itself survives.
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].itemset.size(), 2u);
  EXPECT_EQ(h.ctx().counters->not_independently_productive, 1u);
}

TEST(FilterIndependentlyProductiveTest, GenuineParentKept) {
  Harness h(MakeDb(true));
  Itemset u_only(
      {Item::Categorical(1, h.db().categorical(1).CodeOf("hit"))});
  // Restrict the conjunction to a narrow slice so u=hit keeps plenty of
  // independent signal.
  ContrastPattern parent = h.PatternFor(u_only);
  ContrastPattern child = h.PatternFor(h.BothHits());
  std::vector<ContrastPattern> patterns = {parent, child};
  std::vector<ContrastPattern> kept =
      FilterIndependentlyProductive(h.ctx(), std::move(patterns));
  bool parent_kept = false;
  for (const ContrastPattern& p : kept) {
    if (p.itemset.size() == 1) parent_kept = true;
  }
  EXPECT_TRUE(parent_kept);
}

TEST(FilterIndependentlyProductiveTest, NoSupersetsNoChange) {
  Harness h(MakeDb(true));
  ContrastPattern a = h.PatternFor(
      Itemset({Item::Categorical(1, h.db().categorical(1).CodeOf("hit"))}));
  ContrastPattern b = h.PatternFor(
      Itemset({Item::Categorical(2, h.db().categorical(2).CodeOf("hit"))}));
  std::vector<ContrastPattern> kept =
      FilterIndependentlyProductive(h.ctx(), {a, b});
  EXPECT_EQ(kept.size(), 2u);
}

// Two groups of 1500 rows. Rows k % 10 < 3 of group a sit at
// 20 < x <= 40 with c = u, those of group b at 60 < x <= 90 with either
// c; the other rows spread over x and c identically in both groups. x is
// missing on every seventh row of each group.
data::Dataset MakeResidualDb() {
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int x = b.AddContinuous("x");
  int c = b.AddCategorical("c");
  for (int i = 0; i < 3000; ++i) {
    const bool in_a = i % 2 == 0;
    const int k = i / 2;
    double xv = (k * 37) % 100 + 0.5;
    bool cu = (k / 10) % 2 == 0;
    if (k % 10 < 3) {
      xv = in_a ? 21.0 + k % 19 : 61.0 + k % 29;
      cu = in_a || k % 2 == 0;
    }
    if (k % 7 == 0) xv = std::numeric_limits<double>::quiet_NaN();
    b.AppendCategorical(g, in_a ? "a" : "b");
    b.AppendContinuous(x, xv);
    b.AppendCategorical(c, cu ? "u" : "w");
  }
  auto db = std::move(b).Build();
  SDADCS_CHECK(db.ok());
  return std::move(db).value();
}

// The residual test written out the eager way: covers, Minus,
// CountGroups. Returns which patterns survive and how many chi-square
// tests ran.
std::vector<bool> ResidualOracle(Harness& h,
                                 const std::vector<ContrastPattern>& ps,
                                 uint64_t* tests) {
  const data::Selection& base = h.gi().base_selection();
  std::vector<data::Selection> covers;
  for (const ContrastPattern& p : ps) {
    covers.push_back(p.itemset.Cover(h.db(), base));
  }
  std::vector<bool> keep(ps.size(), true);
  for (size_t i = 0; i < ps.size(); ++i) {
    for (size_t j = 0; j < ps.size() && keep[i]; ++j) {
      if (i == j || ps[j].itemset.size() <= ps[i].itemset.size() ||
          !ps[j].itemset.Specializes(ps[i].itemset)) {
        continue;
      }
      ++*tests;
      GroupCounts gc = CountGroups(h.gi(), covers[i].Minus(covers[j]));
      stats::ChiSquaredResult res =
          stats::ChiSquaredPresenceTest(gc.counts, h.ctx().group_sizes);
      keep[i] = res.valid && res.p_value < h.ctx().cfg->alpha;
    }
  }
  return keep;
}

TEST(FilterIndependentlyProductiveTest, LazyResidualsMatchCoverOracle) {
  Harness h(MakeResidualDb());
  const int32_t u = h.db().categorical(2).CodeOf("u");
  auto x_in = [](double lo, double hi) { return Item::Interval(1, lo, hi); };
  const Item c_is_u = Item::Categorical(2, u);
  // One list where the specialization narrows the x interval (x has
  // missing values), one where it only adds the categorical item; each
  // holds an explained pair and a pair whose general side keeps signal.
  const std::vector<std::vector<Itemset>> lists = {
      {Itemset({x_in(10, 50)}), Itemset({x_in(20, 40), c_is_u}),
       Itemset({x_in(55, 95)}), Itemset({x_in(60, 90), c_is_u})},
      {Itemset({x_in(20, 40)}), Itemset({x_in(20, 40), c_is_u}),
       Itemset({x_in(60, 90)}), Itemset({x_in(60, 90), c_is_u})},
  };
  for (size_t l = 0; l < lists.size(); ++l) {
    for (bool simd : {false, true}) {
      h.ctx().simd = simd;
      *h.ctx().counters = MiningCounters();
      std::vector<ContrastPattern> ps;
      for (const Itemset& is : lists[l]) ps.push_back(h.PatternFor(is));

      uint64_t oracle_tests = 0;
      const std::vector<bool> keep = ResidualOracle(h, ps, &oracle_tests);
      std::vector<std::string> want;
      for (size_t i = 0; i < ps.size(); ++i) {
        if (keep[i]) want.push_back(ps[i].itemset.Key());
      }
      // Both outcomes occur, so the comparison below is not vacuous.
      ASSERT_GT(want.size(), 0u) << "list " << l;
      ASSERT_LT(want.size(), ps.size()) << "list " << l;

      std::vector<std::string> got;
      for (const ContrastPattern& p :
           FilterIndependentlyProductive(h.ctx(), ps)) {
        got.push_back(p.itemset.Key());
      }
      EXPECT_EQ(got, want) << "list " << l << " simd " << simd;
      EXPECT_EQ(h.ctx().counters->chi2_tests, oracle_tests)
          << "list " << l << " simd " << simd;
      EXPECT_EQ(h.ctx().counters->not_independently_productive,
                ps.size() - want.size())
          << "list " << l << " simd " << simd;
    }
  }
}

}  // namespace
}  // namespace sdadcs::core
