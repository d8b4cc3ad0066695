#include "core/search.h"

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/support.h"
#include "util/logging.h"
#include "util/random.h"
#include "synth/simulated.h"

namespace sdadcs::core {
namespace {

TEST(GenerateLevelCandidatesTest, LevelOneIsSingletons) {
  auto c = GenerateLevelCandidates(1, {3, 5, 9}, {});
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0], (std::vector<int>{3}));
  EXPECT_EQ(c[2], (std::vector<int>{9}));
}

TEST(GenerateLevelCandidatesTest, RequiresAllSubsetsAlive) {
  std::vector<std::vector<int>> alive = {{1}, {2}, {3}};
  auto c2 = GenerateLevelCandidates(2, {1, 2, 3}, alive);
  EXPECT_EQ(c2.size(), 3u);  // {1,2}, {1,3}, {2,3}

  // Kill {2}: only {1,3} remains possible.
  std::vector<std::vector<int>> partial = {{1}, {3}};
  auto c2b = GenerateLevelCandidates(2, {1, 2, 3}, partial);
  ASSERT_EQ(c2b.size(), 1u);
  EXPECT_EQ(c2b[0], (std::vector<int>{1, 3}));
}

TEST(GenerateLevelCandidatesTest, LevelThreeJoin) {
  std::vector<std::vector<int>> alive = {{1, 2}, {1, 3}, {2, 3}};
  auto c3 = GenerateLevelCandidates(3, {1, 2, 3}, alive);
  ASSERT_EQ(c3.size(), 1u);
  EXPECT_EQ(c3[0], (std::vector<int>{1, 2, 3}));

  // Remove {2,3}: {1,2,3} loses a subset and is not generated.
  std::vector<std::vector<int>> partial = {{1, 2}, {1, 3}};
  EXPECT_TRUE(GenerateLevelCandidates(3, {1, 2, 3}, partial).empty());
}

TEST(GenerateLevelCandidatesTest, NoAliveNoCandidates) {
  EXPECT_TRUE(GenerateLevelCandidates(2, {1, 2, 3}, {}).empty());
}

class SearchHarness {
 public:
  explicit SearchHarness(data::Dataset db)
      : db_(std::move(db)), topk_(100, 0.1) {
    auto gi = data::GroupInfo::Create(db_, 0);
    SDADCS_CHECK(gi.ok());
    gi_ = std::make_unique<data::GroupInfo>(std::move(gi).value());
    cfg_.max_depth = 2;
    ctx_.db = &db_;
    ctx_.gi = gi_.get();
    ctx_.cfg = &cfg_;
    ctx_.prune_table = &table_;
    ctx_.topk = &topk_;
    ctx_.counters = &counters_;
    ctx_.group_sizes = GroupSizes(*gi_);
    for (size_t a = 0; a < db_.num_attributes(); ++a) {
      int attr = static_cast<int>(a);
      if (db_.is_continuous(attr)) {
        ctx_.root_bounds[attr] =
            ComputeRootBounds(db_, attr, gi_->base_selection());
      }
    }
  }

  MiningContext& ctx() { return ctx_; }
  TopK& topk() { return topk_; }

 private:
  data::Dataset db_;
  MinerConfig cfg_;
  std::unique_ptr<data::GroupInfo> gi_;
  PruneTable table_;
  TopK topk_;
  MiningCounters counters_;
  MiningContext ctx_;
};

TEST(LatticeSearchTest, XorSingleAttributeStaysAliveDespiteNoPatterns) {
  // The crux of multivariate discovery: {Attr1} alone finds nothing on
  // the X-shaped data, but the combination must still be generated.
  SearchHarness h(synth::MakeSimulated2(1200));
  LatticeSearch search(h.ctx());
  EXPECT_TRUE(search.MineCombo({1}));   // Attr1 (0 is Group)
  EXPECT_EQ(h.topk().size(), 0u);
  EXPECT_TRUE(search.MineCombo({1, 2}));
  EXPECT_GT(h.topk().size(), 0u);
}

TEST(LatticeSearchTest, PureAttributeComboGoesDead) {
  // Simulated 1: both halves of Attr1 are pure; the combination with
  // Attr2 must be suppressed by the pure entries in the prune table.
  SearchHarness h(synth::MakeSimulated1(1000));
  LatticeSearch search(h.ctx());
  search.MineCombo({1});
  size_t patterns_after_attr1 = h.topk().size();
  EXPECT_GT(patterns_after_attr1, 0u);
  uint64_t lookup_before = h.ctx().counters->pruned_lookup;
  search.MineCombo({1, 2});
  // Every cell of the joint space lies inside a pure half -> all pruned
  // via the lookup table, no new patterns.
  EXPECT_GT(h.ctx().counters->pruned_lookup, lookup_before);
  EXPECT_EQ(h.topk().size(), patterns_after_attr1);
}

TEST(LatticeSearchTest, RunHonorsMaxDepth) {
  SearchHarness h(synth::MakeSimulated4(800));
  h.ctx().cfg;  // depth already 2
  LatticeSearch search(h.ctx());
  search.Run({1, 2});
  for (const ContrastPattern& p : h.topk().Sorted()) {
    EXPECT_LE(p.itemset.size(), 2u);
  }
}

// Attributes of the scan-reuse data: the group, a categorical c and two
// continuous x and y.
constexpr int kReuseC = 1;
constexpr int kReuseX = 2;
constexpr int kReuseY = 3;

// Two groups that differ only where c = "p", and there by an XOR of
// x <= 50 and y <= 5 (so every root cut shows in the patterns' bounds);
// with `y_missing`, a fifth of the rows miss y, so the root
// filter of a combination holding y drops rows that (x) alone keeps.
data::Dataset MakeReuseData(bool y_missing) {
  static const char* const kValues[] = {"p", "q", "r"};
  util::Rng rng(17);
  data::DatasetBuilder b;
  b.AddCategorical("g");
  b.AddCategorical("c");
  b.AddContinuous("x");
  b.AddContinuous("y");
  for (int i = 0; i < 2400; ++i) {
    const double x = rng.Uniform(0.0, 100.0);
    const double y = rng.Uniform(0.0, 10.0);
    const char* c = kValues[rng.NextBelow(3)];
    double p_a = 0.5;
    if (c == kValues[0]) p_a = (x <= 50.0) == (y <= 5.0) ? 0.9 : 0.1;
    b.AppendCategorical(0, rng.Bernoulli(p_a) ? "a" : "b");
    b.AppendCategorical(kReuseC, c);
    b.AppendContinuous(kReuseX, x);
    if (y_missing && rng.Bernoulli(0.2)) {
      b.AppendMissing(kReuseY);
    } else {
      b.AppendContinuous(kReuseY, y);
    }
  }
  auto db = std::move(b).Build();
  SDADCS_CHECK(db.ok());
  return std::move(db).value();
}

// What mining one combination produced: its top-k (itemset keys, which
// carry every interval bound, with counts) and its counters.
struct ComboOutcome {
  std::vector<std::string> patterns;
  MiningCounters counters;
};

// A context over a borrowed dataset whose per-combination state (prune
// table, top-k, counters) is fresh for each Mine call, while the
// context's and the search's run memos persist across calls.
class ReuseHarness {
 public:
  ReuseHarness(const data::Dataset& db, bool simd, int max_depth = 5) {
    cfg_.max_depth = max_depth;
    auto gi = data::GroupInfo::Create(db, 0);
    SDADCS_CHECK(gi.ok());
    gi_ = std::make_unique<data::GroupInfo>(std::move(gi).value());
    ctx_.db = &db;
    ctx_.gi = gi_.get();
    ctx_.cfg = &cfg_;
    ctx_.simd = simd;
    ctx_.group_sizes = GroupSizes(*gi_);
    for (size_t a = 0; a < db.num_attributes(); ++a) {
      const int attr = static_cast<int>(a);
      if (db.is_continuous(attr)) {
        ctx_.root_bounds[attr] =
            ComputeRootBounds(db, attr, gi_->base_selection());
      }
    }
  }

  MiningContext& ctx() { return ctx_; }

  ComboOutcome Mine(LatticeSearch* search, const std::vector<int>& combo) {
    PruneTable table;
    TopK topk(100, cfg_.delta);
    ComboOutcome out;
    ctx_.prune_table = &table;
    ctx_.topk = &topk;
    ctx_.counters = &out.counters;
    search->MineCombo(combo);
    for (const ContrastPattern& p : topk.Sorted()) {
      std::string line = p.itemset.Key();
      for (double c : p.counts) {
        line += ' ';
        line += std::to_string(c);
      }
      out.patterns.push_back(std::move(line));
    }
    ctx_.prune_table = nullptr;
    ctx_.topk = nullptr;
    ctx_.counters = nullptr;
    return out;
  }

 private:
  MinerConfig cfg_;
  std::unique_ptr<data::GroupInfo> gi_;
  MiningContext ctx_;
};

void ExpectSameCounters(const MiningCounters& a, const MiningCounters& b) {
  EXPECT_EQ(a.partitions_evaluated, b.partitions_evaluated);
  EXPECT_EQ(a.sdad_calls, b.sdad_calls);
  EXPECT_EQ(a.pruned_lookup, b.pruned_lookup);
  EXPECT_EQ(a.pruned_min_support, b.pruned_min_support);
  EXPECT_EQ(a.pruned_low_expected, b.pruned_low_expected);
  EXPECT_EQ(a.pruned_redundant, b.pruned_redundant);
  EXPECT_EQ(a.pruned_pure, b.pruned_pure);
  EXPECT_EQ(a.pruned_oe_measure, b.pruned_oe_measure);
  EXPECT_EQ(a.pruned_oe_chi2, b.pruned_oe_chi2);
  EXPECT_EQ(a.unproductive, b.unproductive);
  EXPECT_EQ(a.merges, b.merges);
  EXPECT_EQ(a.chi2_tests, b.chi2_tests);
}

// The run memos (item covers, root axes, base counts) carry values from
// one combination to the next. Mining (x), then (x, y), then (c, x, y)
// with one search must give each combination exactly what a fresh
// search gives it: a root axis of x is reused only over the same rows,
// which (x, y) does not share with (x) when y misses values, and no
// categorical prefix shares with the empty one. So must a search whose
// memo came the way a team member's does: another search (the member)
// mines the combination first, and the relay takes the member's
// entries and hands it a copy back, as ShareMemos does at a level's
// start.
TEST(LatticeSearchTest, ReusedSearchMinesEachComboLikeAFreshOne) {
  const std::vector<std::vector<int>> combos = {
      {kReuseX}, {kReuseX, kReuseY}, {kReuseC, kReuseX, kReuseY}};
  for (bool y_missing : {false, true}) {
    const data::Dataset db = MakeReuseData(y_missing);
    for (bool simd : {false, true}) {
      ReuseHarness shared(db, simd);
      LatticeSearch search(shared.ctx());
      ReuseHarness member_harness(db, simd);
      LatticeSearch member(member_harness.ctx());
      ReuseHarness relay_harness(db, simd);
      LatticeSearch relay(relay_harness.ctx());
      size_t patterns = 0;
      for (const std::vector<int>& combo : combos) {
        SCOPED_TRACE("y_missing " + std::to_string(y_missing) + " simd " +
                     std::to_string(simd) + " combo of " +
                     std::to_string(combo.size()));
        ComboOutcome reused = shared.Mine(&search, combo);
        ComboOutcome by_member = member_harness.Mine(&member, combo);
        relay.TakeMemos(&member);
        member.CopyMemos(relay);
        ComboOutcome relayed = relay_harness.Mine(&relay, combo);
        ReuseHarness fresh(db, simd);
        LatticeSearch fresh_search(fresh.ctx());
        ComboOutcome alone = fresh.Mine(&fresh_search, combo);
        EXPECT_GT(alone.counters.partitions_evaluated, 0u);
        patterns += alone.patterns.size();
        for (const ComboOutcome* outcome : {&reused, &by_member, &relayed}) {
          EXPECT_EQ(outcome->patterns, alone.patterns);
          ExpectSameCounters(outcome->counters, alone.counters);
        }
      }
      EXPECT_GT(patterns, 0u);
    }
  }
}

// Bytes of one bitset over `rows` positions.
size_t BitsetBytes(size_t rows) { return (rows + 63) / 64 * sizeof(uint64_t); }

// Mines `attrs` with one search at `max_depth` through Run and returns
// its root-axis memo's size once the run is over.
LatticeSearch::RootMemoStats RunAndMeasure(const data::Dataset& db,
                                           bool simd, int max_depth,
                                           const std::vector<int>& attrs) {
  ReuseHarness h(db, simd, max_depth);
  PruneTable table;
  TopK topk(100, MinerConfig().delta);
  MiningCounters counters;
  h.ctx().prune_table = &table;
  h.ctx().topk = &topk;
  h.ctx().counters = &counters;
  LatticeSearch search(h.ctx());
  search.Run(attrs);
  EXPECT_GT(counters.partitions_evaluated, 0u);
  return search.root_memo();
}

// The memo keeps a root part only while a later combination can read
// it. At depth 2 over (c, x, y) without missing values the last level
// mines (c, x), (c, y) and (x, y): the base root's group bits and both
// axes stay from level 1 for (x, y), and each prefix root keeps its
// group bits, which (c, x) and (c, y) share, but not its axes, which
// one combination each reads. When y misses values, (y) leaves nothing
// alive on the rows that have y, so the last level mines (c, x) alone:
// it drops every part level 1 kept, and keeps none of its own.
TEST(LatticeSearchTest, RootMemoKeepsOnlyWhatALaterCombinationReads) {
  for (bool y_missing : {false, true}) {
    const data::Dataset db = MakeReuseData(y_missing);
    auto gi = data::GroupInfo::Create(db, 0);
    ASSERT_TRUE(gi.ok());
    const size_t groups = static_cast<size_t>(gi->num_groups());
    const data::Selection& base = gi->base_selection();
    size_t want = 0;
    if (!y_missing) {
      want = (groups + 2) * BitsetBytes(base.size());
      const data::CategoricalColumn& c = db.categorical(kReuseC);
      for (int32_t code = 0; code < c.cardinality(); ++code) {
        const size_t rows = base.Filter([&](uint32_t r) {
                                  return c.code(r) == code;
                                }).size();
        want += groups * BitsetBytes(rows);
      }
    }
    for (bool simd : {false, true}) {
      SCOPED_TRACE("y_missing " + std::to_string(y_missing) + " simd " +
                   std::to_string(simd));
      const LatticeSearch::RootMemoStats memo =
          RunAndMeasure(db, simd, 2, {kReuseC, kReuseX, kReuseY});
      EXPECT_EQ(memo.bytes, want);
      EXPECT_GE(memo.peak, want);
      EXPECT_GT(memo.peak, 0u);
      EXPECT_LE(memo.peak, memo.budget);
      EXPECT_EQ(memo.budget, 4 * base.size() * 2);
    }
  }
}

// Attributes of the wide data: the group, kWideCats categorical
// attributes of three values and one continuous x.
constexpr int kWideCats = 12;
constexpr int kWideX = kWideCats + 1;

// Two groups that differ by x <= 50 where c0 = "p"; the other
// categorical attributes are noise. Every prefix root holds about a
// third of the rows, so the parts of a few prefixes fill the memo's
// budget of four bytes per row of x.
data::Dataset MakeWideData() {
  static const char* const kValues[] = {"p", "q", "r"};
  util::Rng rng(29);
  data::DatasetBuilder b;
  b.AddCategorical("g");
  for (int c = 0; c < kWideCats; ++c) {
    std::string name = "c";
    name += std::to_string(c);
    b.AddCategorical(name);
  }
  b.AddContinuous("x");
  for (int i = 0; i < 1500; ++i) {
    const double x = rng.Uniform(0.0, 100.0);
    int32_t first = 0;
    for (int c = 0; c < kWideCats; ++c) {
      const int32_t v = static_cast<int32_t>(rng.NextBelow(3));
      if (c == 0) first = v;
      b.AppendCategorical(1 + c, kValues[v]);
    }
    const double p_a = first == 0 ? (x <= 50.0 ? 0.85 : 0.15) : 0.5;
    b.AppendCategorical(0, rng.Bernoulli(p_a) ? "a" : "b");
    b.AppendContinuous(kWideX, x);
  }
  auto db = std::move(b).Build();
  SDADCS_CHECK(db.ok());
  return std::move(db).value();
}

// Mined one after another with one search, combinations over many
// prefixes fill the memo to its budget; the parts that no longer fit
// are computed for their split and not kept, and every combination,
// mined once or again, still gets what a fresh search gives it.
TEST(LatticeSearchTest, RootMemoStaysWithinItsBudget) {
  const data::Dataset db = MakeWideData();
  std::vector<std::vector<int>> combos = {{kWideX}};
  for (int c = 1; c <= kWideCats; ++c) combos.push_back({c, kWideX});
  combos.push_back({1, 2, kWideX});
  combos.push_back({1, kWideX});
  combos.push_back({kWideCats, kWideX});
  // The group bits (two groups) and x's side bits of every root these
  // combinations split (the base selection and each one-item prefix)
  // would take more than the budget of 4 bytes per row.
  size_t parts = 3 * BitsetBytes(db.num_rows());
  for (int c = 1; c <= kWideCats; ++c) {
    const data::CategoricalColumn& col = db.categorical(c);
    for (int32_t code = 0; code < col.cardinality(); ++code) {
      size_t rows = 0;
      for (uint32_t r = 0; r < db.num_rows(); ++r) rows += col.code(r) == code;
      parts += 3 * BitsetBytes(rows);
    }
  }
  ASSERT_GT(parts, 4 * db.num_rows());
  for (bool simd : {false, true}) {
    ReuseHarness shared(db, simd);
    LatticeSearch search(shared.ctx());
    size_t patterns = 0;
    for (const std::vector<int>& combo : combos) {
      SCOPED_TRACE("simd " + std::to_string(simd) + " combo of " +
                   std::to_string(combo.size()) + " from " +
                   std::to_string(combo.front()));
      ComboOutcome reused = shared.Mine(&search, combo);
      ReuseHarness fresh(db, simd);
      LatticeSearch fresh_search(fresh.ctx());
      ComboOutcome alone = fresh.Mine(&fresh_search, combo);
      EXPECT_GT(alone.counters.partitions_evaluated, 0u);
      patterns += alone.patterns.size();
      EXPECT_EQ(reused.patterns, alone.patterns);
      ExpectSameCounters(reused.counters, alone.counters);
      EXPECT_LE(search.root_memo().bytes, search.root_memo().budget);
    }
    EXPECT_GT(patterns, 0u);
    const LatticeSearch::RootMemoStats memo = search.root_memo();
    EXPECT_EQ(memo.budget, 4 * db.num_rows());
    EXPECT_LE(memo.peak, memo.budget);
    EXPECT_GT(memo.peak, memo.budget / 2);
  }
}

}  // namespace
}  // namespace sdadcs::core
