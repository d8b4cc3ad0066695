// Engine-level behaviour of the run-control layer: deadlines, budgets
// and cancellation drain cleanly with valid best-so-far results, and a
// named group spec is byte-identical to mining with a pre-resolved
// GroupInfo.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/miner.h"
#include "core/stucco.h"
#include "synth/scaling.h"
#include "synth/simulated.h"
#include "synth/uci_like.h"
#include "util/run_control.h"

namespace sdadcs::core {
namespace {

// Byte-exact rendering of a mined result (same shape as the
// differential tests): itemset, exact counts and full-precision stats,
// in rank order.
std::string RenderResult(const std::vector<ContrastPattern>& patterns) {
  std::string out;
  char buf[512];
  for (const ContrastPattern& p : patterns) {
    out += p.itemset.Key();
    for (double c : p.counts) {
      std::snprintf(buf, sizeof(buf), " %.17g", c);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  " | diff=%.17g measure=%.17g chi2=%.17g p=%.17g\n", p.diff,
                  p.measure, p.chi2, p.p_value);
    out += buf;
  }
  return out;
}

void ExpectSortedByMeasure(const std::vector<ContrastPattern>& patterns) {
  for (size_t i = 1; i < patterns.size(); ++i) {
    EXPECT_GE(patterns[i - 1].measure, patterns[i].measure) << "rank " << i;
  }
}

TEST(RunControlMiningTest, DeadlineMidRunReturnsSortedPartialTopK) {
  // Wide + deep enough that an unbounded run takes many times the
  // deadline; the informative features come first, so even a short
  // prefix of level 1 yields patterns.
  synth::ScalingOptions opt;
  opt.rows = 40000;
  opt.continuous_features = 60;
  opt.categorical_features = 20;
  synth::NamedDataset sc = synth::MakeScalingDataset(opt);

  MinerConfig cfg;
  cfg.max_depth = 3;
  Miner miner(cfg);

  // Unoptimized / sanitizer builds mine an order of magnitude slower,
  // so they get a longer deadline (enough to score the first
  // candidates) and a looser drain bound; the release acceptance
  // numbers stay 100 ms + 50 ms overshoot.
#ifdef NDEBUG
  constexpr std::chrono::milliseconds kDeadline(100);
  constexpr double kMaxWall = 0.150;
#else
  constexpr std::chrono::milliseconds kDeadline(500);
  constexpr double kMaxWall = 2.0;
#endif
  MineRequest request;
  request.group_attr = sc.group_attr;
  request.run_control = util::RunControl::WithDeadline(kDeadline);
  auto before = util::RunControl::Clock::now();
  auto result = miner.Mine(sc.db, request);
  double wall = std::chrono::duration<double>(
                    util::RunControl::Clock::now() - before)
                    .count();
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(result->completion, Completion::kDeadlineExceeded);
  // The run drains within 50 ms of the 100 ms deadline (release).
  EXPECT_LT(wall, kMaxWall);
  // Best-so-far: non-empty, correctly sorted, valid patterns.
  ASSERT_FALSE(result->contrasts.empty());
  ExpectSortedByMeasure(result->contrasts);
  for (const ContrastPattern& p : result->contrasts) {
    EXPECT_GE(p.itemset.size(), 1u);
    EXPECT_GT(p.diff, 0.0);
  }
}

TEST(RunControlMiningTest, NodeBudgetStopsTheRun) {
  data::Dataset db = synth::MakeSimulated4(1500);
  MinerConfig cfg;
  cfg.max_depth = 2;

  MineRequest request;
  request.group_attr = "Group";
  request.run_control.set_node_budget(8);
  auto result = Miner(cfg).Mine(db, request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->completion, Completion::kBudgetExhausted);

  // An ample budget completes and is not misreported as exhausted.
  MineRequest ample;
  ample.group_attr = "Group";
  ample.run_control.set_node_budget(100000000);
  auto full = Miner(cfg).Mine(db, ample);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->completion, Completion::kComplete);
}

// A node budget that runs out inside a root space: the budget is
// checked at each root cell, so the run stops part way through one root
// split (after cell 1 of 2 and after cell 2 of 4 on this data) and
// returns the patterns found so far. Whatever splits a root, the stop,
// the partial patterns and every counter must stay where they were:
// the constants below were taken from the mine that split each root
// space with a scan of its rows.
TEST(RunControlMiningTest, BudgetStopInsideARootSpaceKeepsItsPartials) {
  synth::ScalingOptions opt;
  opt.rows = 6000;
  opt.continuous_features = 3;
  opt.categorical_features = 1;
  opt.seed = 5;
  synth::NamedDataset sc = synth::MakeScalingDataset(opt);
  MinerConfig cfg;
  cfg.max_depth = 2;
  struct Pinned {
    uint64_t budget;
    size_t patterns;
    uint64_t render_fnv;
    MiningCounters counters;
  };
  auto counters = [](uint64_t partitions, uint64_t sdad_calls,
                     uint64_t lookup, uint64_t min_support,
                     uint64_t redundant, uint64_t oe_measure,
                     uint64_t unproductive, uint64_t chi2_tests,
                     uint64_t abandoned) {
    MiningCounters c;
    c.partitions_evaluated = partitions;
    c.sdad_calls = sdad_calls;
    c.pruned_lookup = lookup;
    c.pruned_min_support = min_support;
    c.pruned_redundant = redundant;
    c.pruned_oe_measure = oe_measure;
    c.unproductive = unproductive;
    c.chi2_tests = chi2_tests;
    c.abandoned_candidates = abandoned;
    return c;
  };
  const Pinned kPinned[] = {
      {95, 8, 0xcba3da2c607c5a71ULL, counters(59, 28, 0, 5, 11, 14, 4, 30, 5)},
      {170, 9, 0x236f4d8cf497d633ULL,
       counters(101, 47, 2, 20, 15, 26, 9, 42, 2)},
  };
  for (const Pinned& pin : kPinned) {
    SCOPED_TRACE("budget " + std::to_string(pin.budget));
    MineRequest request;
    request.group_attr = sc.group_attr;
    request.run_control.set_node_budget(pin.budget);
    auto result = Miner(cfg).Mine(sc.db, request);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->completion, Completion::kBudgetExhausted);
    EXPECT_EQ(result->contrasts.size(), pin.patterns);
    uint64_t fnv = 1469598103934665603ULL;
    for (unsigned char ch : RenderResult(result->contrasts)) {
      fnv = (fnv ^ ch) * 1099511628211ULL;
    }
    EXPECT_EQ(fnv, pin.render_fnv);
    const MiningCounters& got = result->counters;
    const MiningCounters& want = pin.counters;
    EXPECT_EQ(got.partitions_evaluated, want.partitions_evaluated);
    EXPECT_EQ(got.sdad_calls, want.sdad_calls);
    EXPECT_EQ(got.pruned_lookup, want.pruned_lookup);
    EXPECT_EQ(got.pruned_min_support, want.pruned_min_support);
    EXPECT_EQ(got.pruned_low_expected, 0u);
    EXPECT_EQ(got.pruned_redundant, want.pruned_redundant);
    EXPECT_EQ(got.pruned_pure, 0u);
    EXPECT_EQ(got.pruned_oe_measure, want.pruned_oe_measure);
    EXPECT_EQ(got.pruned_oe_chi2, 0u);
    EXPECT_EQ(got.unproductive, want.unproductive);
    EXPECT_EQ(got.merges, 0u);
    EXPECT_EQ(got.chi2_tests, want.chi2_tests);
    EXPECT_EQ(got.abandoned_candidates, want.abandoned_candidates);
  }
}

TEST(RunControlMiningTest, PreCancelledRequestReturnsOkAndEmptyish) {
  data::Dataset db = synth::MakeSimulated3(800);
  MinerConfig cfg;
  cfg.max_depth = 2;

  MineRequest request;
  request.group_attr = "Group";
  request.run_control.Cancel();
  auto result = Miner(cfg).Mine(db, request);
  // Cancellation is a completion state, never an error.
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->completion, Completion::kCancelled);
  EXPECT_TRUE(result->contrasts.empty());
}

TEST(RunControlMiningTest, AbandonedWorkIsCounted) {
  data::Dataset db = synth::MakeSimulated4(1200);
  MinerConfig cfg;
  cfg.max_depth = 2;
  MineRequest request;
  request.group_attr = "Group";
  request.run_control.set_node_budget(4);
  auto result = Miner(cfg).Mine(db, request);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->completion, Completion::kBudgetExhausted);
  EXPECT_GT(result->counters.abandoned_candidates, 0u);
}

TEST(RunControlMiningTest, ProgressCallbackSeesLevels) {
  data::Dataset db = synth::MakeSimulated4(1000);
  MinerConfig cfg;
  cfg.max_depth = 2;

  std::vector<util::RunProgress> seen;
  MineRequest request;
  request.group_attr = "Group";
  request.run_control.set_progress_callback(
      [&seen](const util::RunProgress& p) { seen.push_back(p); });
  auto result = Miner(cfg).Mine(db, request);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(seen.empty());
  int max_level = 0;
  for (const util::RunProgress& p : seen) {
    EXPECT_LE(p.candidates_done, p.candidates_total);
    max_level = std::max(max_level, p.level);
  }
  EXPECT_EQ(max_level, 2);
}

TEST(RunControlMiningTest, NamedSpecMatchesPrebuiltGroups) {
  // A request naming its groups (group_attr + group_values, resolved by
  // the engine) must be byte-identical to the same mine over a
  // pre-resolved GroupInfo — same patterns, same order, same stats to
  // the last bit.
  for (const std::string& name :
       {std::string("adult"), std::string("transfusion")}) {
    synth::NamedDataset nd = synth::MakeUciLike(name, /*seed=*/7);
    MinerConfig cfg;
    cfg.max_depth = 2;
    cfg.top_k = 50;
    Miner miner(cfg);

    MineRequest request;
    request.group_attr = nd.group_attr;
    request.group_values = nd.groups;
    auto via_request = miner.Mine(nd.db, request);
    ASSERT_TRUE(via_request.ok());
    EXPECT_EQ(via_request->completion, Completion::kComplete);

    auto attr = nd.db.schema().IndexOf(nd.group_attr);
    ASSERT_TRUE(attr.ok());
    auto gi = data::GroupInfo::CreateForValues(nd.db, *attr, nd.groups);
    ASSERT_TRUE(gi.ok());
    MineRequest prebuilt;
    prebuilt.groups = &*gi;
    auto via_groups = miner.Mine(nd.db, prebuilt);
    ASSERT_TRUE(via_groups.ok());

    EXPECT_EQ(RenderResult(via_request->contrasts),
              RenderResult(via_groups->contrasts))
        << "dataset " << name;
    EXPECT_EQ(via_request->counters.partitions_evaluated,
              via_groups->counters.partitions_evaluated)
        << "dataset " << name;
  }
}

TEST(RunControlMiningTest, UnboundedScalingRunIsComplete) {
  synth::ScalingOptions opt;
  opt.rows = 2000;
  opt.continuous_features = 10;
  opt.categorical_features = 5;
  synth::NamedDataset sc = synth::MakeScalingDataset(opt);
  MinerConfig cfg;
  cfg.max_depth = 2;

  MineRequest request;
  request.group_attr = sc.group_attr;
  auto bounded_free = Miner(cfg).Mine(sc.db, request);
  ASSERT_TRUE(bounded_free.ok());
  EXPECT_EQ(bounded_free->completion, Completion::kComplete);
  EXPECT_EQ(bounded_free->counters.abandoned_candidates, 0u);

  auto attr = sc.db.schema().IndexOf(sc.group_attr);
  ASSERT_TRUE(attr.ok());
  auto gi = data::GroupInfo::Create(sc.db, *attr);
  ASSERT_TRUE(gi.ok());
  MineRequest prebuilt;
  prebuilt.groups = &*gi;
  auto via_groups = Miner(cfg).Mine(sc.db, prebuilt);
  ASSERT_TRUE(via_groups.ok());
  EXPECT_EQ(RenderResult(bounded_free->contrasts),
            RenderResult(via_groups->contrasts));
}

TEST(RunControlMiningTest, StuccoHonoursControl) {
  // Needs categorical attributes: STUCCO ignores continuous ones.
  synth::NamedDataset nd = synth::MakeAdultLike();
  auto attr = nd.db.schema().IndexOf(nd.group_attr);
  ASSERT_TRUE(attr.ok());
  auto gi = data::GroupInfo::CreateForValues(nd.db, *attr, nd.groups);
  ASSERT_TRUE(gi.ok());
  StuccoConfig cfg;

  util::RunControl cancelled;
  cancelled.Cancel();
  StuccoResult stopped = MineStucco(nd.db, *gi, cfg, &cancelled);
  EXPECT_EQ(stopped.completion, Completion::kCancelled);
  EXPECT_TRUE(stopped.contrasts.empty());

  StuccoResult full = MineStucco(nd.db, *gi, cfg);
  EXPECT_EQ(full.completion, Completion::kComplete);
  EXPECT_GT(full.itemsets_evaluated, 0u);
}

TEST(RunControlMiningTest, InvalidConfigReportsField) {
  data::Dataset db = synth::MakeSimulated3(300);
  MinerConfig cfg;
  cfg.top_k = 0;
  MineRequest request;
  request.group_attr = "Group";
  auto result = Miner(cfg).Mine(db, request);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("top_k"), std::string::npos);
}

}  // namespace
}  // namespace sdadcs::core
