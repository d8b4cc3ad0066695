// Tests of the engine layer: the one engine table, its name parser and
// the uniform Mine() contract across every engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/reports.h"
#include "common/requests.h"
#include "common/threads.h"
#include "core/request_key.h"
#include "data/dataset.h"
#include "data/group_info.h"
#include "engine/registry.h"
#include "synth/uci_like.h"
#include "util/random.h"

namespace sdadcs {
namespace {

using core::EngineKind;
using core::MinerConfig;
using engine::EngineOptions;
using engine::EngineRow;
using engine::Engines;
using engine::ParseEngine;

using test_support::GroupRequest;
using test_support::GroupsRequest;
using test_support::RenderReports;
using test_support::NewThreadsSince;
using test_support::ThreadIds;

// A small mixed dataset with an unmistakable planted contrast: group
// "a" concentrates in x <= 50 and carries tag "t0".
data::Dataset MakeTinyDataset() {
  util::Rng rng(42);
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int x = b.AddContinuous("x");
  int t = b.AddCategorical("tag");
  for (int i = 0; i < 400; ++i) {
    double v = rng.Uniform(0.0, 100.0);
    bool lo = v <= 50.0;
    bool a = lo ? rng.Bernoulli(0.9) : rng.Bernoulli(0.1);
    b.AppendCategorical(g, a ? "a" : "b");
    b.AppendContinuous(x, v);
    b.AppendCategorical(t, a ? "t0" : "t1");
  }
  auto db = std::move(b).Build();
  EXPECT_TRUE(db.ok());
  return std::move(*db);
}

TEST(EngineRegistryTest, RegistersEveryDocumentedName) {
  const std::vector<std::string> expected = {
      "serial",         "parallel",          "beam",
      "binned:fayyad",  "binned:mvd",        "binned:srikant",
      "binned:equal_width", "binned:equal_freq", "window",
      "sharded"};
  std::vector<std::string> names;
  for (const EngineRow& row : Engines()) names.push_back(row.name);
  std::sort(names.begin(), names.end());
  std::vector<std::string> want = expected;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(names, want);
  for (const std::string& name : expected) {
    EXPECT_TRUE(ParseEngine(name).ok()) << name;
  }
  // "auto" parses but is no row: the servers resolve it.
  EXPECT_EQ(std::count(names.begin(), names.end(), "auto"), 0);
}

TEST(EngineRegistryTest, EveryEngineKindHasExactlyOneRow) {
  // kSharded is the last kind; a new kind moves this bound.
  for (int k = 0; k <= static_cast<int>(EngineKind::kSharded); ++k) {
    const EngineKind kind = static_cast<EngineKind>(k);
    size_t rows = 0;
    for (const EngineRow& row : Engines()) rows += row.kind == kind;
    EXPECT_EQ(rows, kind == EngineKind::kAuto ? 0u : 1u) << "kind " << k;
  }
  // Name and kind invert each other on every row, and on "auto".
  for (const EngineRow& row : Engines()) {
    EXPECT_STREQ(engine::EngineName(row.kind), row.name);
    auto parsed = ParseEngine(row.name);
    ASSERT_TRUE(parsed.ok()) << row.name;
    EXPECT_EQ(parsed->kind, row.kind) << row.name;
  }
  EXPECT_STREQ(engine::EngineName(EngineKind::kAuto), "auto");
  auto auto_spec = ParseEngine("auto");
  ASSERT_TRUE(auto_spec.ok());
  EXPECT_EQ(auto_spec->kind, EngineKind::kAuto);
}

TEST(EngineRegistryTest, ShardedNameParsesWithOptionalCount) {
  // Bare "sharded" is a plain kind; "sharded:<n>" carries the count.
  auto bare = ParseEngine("sharded");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->kind, EngineKind::kSharded);
  EXPECT_EQ(bare->shard_count, 0u);

  auto counted = ParseEngine("sharded:4");
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->kind, EngineKind::kSharded);
  EXPECT_EQ(counted->shard_count, 4u);

  // Every plain table name parses as a spec with no count.
  for (const EngineRow& row : Engines()) {
    auto spec = ParseEngine(row.name);
    ASSERT_TRUE(spec.ok()) << row.name;
    EXPECT_EQ(spec->kind, row.kind) << row.name;
    EXPECT_EQ(spec->shard_count, 0u) << row.name;
  }

  for (const char* bad : {"sharded:", "sharded:0", "sharded:x",
                          "sharded:-1", "sharded:4x", "shard:4"}) {
    auto spec = ParseEngine(bad);
    EXPECT_FALSE(spec.ok()) << bad;
    EXPECT_EQ(spec.status().code(), util::StatusCode::kInvalidArgument)
        << bad;
  }
  // A malformed count names the positive-count rule, not "unknown".
  EXPECT_NE(ParseEngine("sharded:0").status().message().find(
                "requires a positive shard count"),
            std::string::npos);
}

TEST(EngineRegistryTest, ParameterizedShardedNameCreatesEngine) {
  // The shard count never changes results, so watch it where it shows:
  // a multi-shard mine runs team threads, a one-shard mine none.
  data::Dataset db = MakeTinyDataset();
  auto gi = data::GroupInfo::Create(db, 0);
  ASSERT_TRUE(gi.ok());
  auto team_threads = [&](const std::string& name, size_t option) {
    auto spec = ParseEngine(name);
    EXPECT_TRUE(spec.ok()) << name;
    EngineOptions opts;
    opts.shard_count = option;
    core::MineRequest request = GroupsRequest(*gi);
    const std::set<std::string> before = ThreadIds();
    size_t during = 0;
    bool reported = false;
    request.run_control.set_progress_callback(
        [&](const util::RunProgress&) {
          reported = true;
          during = std::max(during, NewThreadsSince(before));
        });
    auto result = engine::Mine(*spec, MinerConfig(), opts, db, request);
    EXPECT_TRUE(result.ok()) << name;
    EXPECT_TRUE(reported) << name << ": no progress report";
    return during;
  };
  // A two-shard team is min(2, cores) wide, the mining thread included.
  const size_t workers =
      std::min<size_t>(2, std::max(1u, std::thread::hardware_concurrency())) -
      1;
  // An explicit "sharded:<n>" beats EngineOptions::shard_count...
  EXPECT_EQ(team_threads("sharded:1", 2), 0u);
  EXPECT_EQ(team_threads("sharded:2", 1), workers);
  // ...and bare "sharded" takes the option, as "parallel" does.
  EXPECT_EQ(team_threads("sharded", 2), workers);
  EXPECT_EQ(team_threads("sharded", 1), 0u);
  EXPECT_EQ(team_threads("parallel", 2), workers);
  EXPECT_EQ(team_threads("parallel", 1), 0u);
}

TEST(EngineRegistryTest, MultiThreadEnginesStreamAnytimeReportsInOrder) {
  // Every row that mines on more than one thread, streaming anytime
  // partials. Each report must come on the calling thread, name a level
  // of the search, and never move the best-so-far backwards; the whole
  // report sequence and the result equal the serial engine's.
  synth::NamedDataset nd = synth::MakeUciLike("adult", /*seed=*/7);
  MinerConfig cfg;
  cfg.max_depth = 3;
  cfg.top_k = 20;
  EngineOptions opts;
  opts.shard_count = 4;
  auto mine = [&](EngineKind kind, std::vector<util::RunProgress>* reports) {
    const std::thread::id caller = std::this_thread::get_id();
    std::mutex mu;
    core::MineRequest request = GroupRequest("education");
    request.run_control.set_anytime(true);
    request.run_control.set_progress_callback(
        [&](const util::RunProgress& p) {
          std::lock_guard<std::mutex> lock(mu);
          EXPECT_EQ(std::this_thread::get_id(), caller)
              << engine::EngineName(kind) << " reported off the calling thread";
          reports->push_back(p);
        });
    auto result = engine::Mine({kind}, cfg, opts, nd.db, request);
    EXPECT_TRUE(result.ok()) << engine::EngineName(kind);
    return result;
  };
  std::vector<util::RunProgress> serial_reports;
  auto serial = mine(EngineKind::kSerial, &serial_reports);
  ASSERT_TRUE(serial.ok());

  size_t engines = 0;
  for (const EngineRow& row : Engines()) {
    if (row.kind != EngineKind::kParallel && row.kind != EngineKind::kSharded) {
      continue;
    }
    ++engines;
    std::vector<util::RunProgress> reports;
    auto result = mine(row.kind, &reports);
    ASSERT_TRUE(result.ok()) << row.name;
    ASSERT_FALSE(reports.empty()) << row.name;
    size_t improved = 0;
    for (size_t i = 0; i < reports.size(); ++i) {
      const util::RunProgress& p = reports[i];
      EXPECT_GE(p.level, 1) << row.name << " report " << i;
      if (p.improved) ++improved;
      if (i == 0) continue;
      const util::RunProgress& prev = reports[i - 1];
      EXPECT_GE(p.patterns_found, prev.patterns_found)
          << row.name << " report " << i;
      EXPECT_GE(p.best_measure, prev.best_measure)
          << row.name << " report " << i;
      EXPECT_GE(p.topk_version, prev.topk_version)
          << row.name << " report " << i;
    }
    EXPECT_GT(improved, 0u) << row.name;
    EXPECT_EQ(RenderReports(reports), RenderReports(serial_reports))
        << row.name;
    ASSERT_EQ(result->contrasts.size(), serial->contrasts.size()) << row.name;
    for (size_t i = 0; i < serial->contrasts.size(); ++i) {
      EXPECT_EQ(result->contrasts[i].itemset, serial->contrasts[i].itemset)
          << row.name << " rank " << i;
      EXPECT_EQ(result->contrasts[i].counts, serial->contrasts[i].counts)
          << row.name << " rank " << i;
    }
  }
  EXPECT_EQ(engines, 2u);
}

TEST(EngineRegistryTest, UnknownNameIsInvalidArgumentListingEveryName) {
  auto parsed = ParseEngine("warp");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
  const std::string& message = parsed.status().message();
  EXPECT_NE(message.find("'warp'"), std::string::npos);
  for (const EngineRow& row : Engines()) {
    EXPECT_NE(message.find(row.name), std::string::npos) << row.name;
  }
  EXPECT_NE(message.find("sharded:<n>"), std::string::npos);
}

TEST(EngineRegistryTest, MineRejectsUnresolvedAuto) {
  data::Dataset db = MakeTinyDataset();
  auto result = engine::Mine({EngineKind::kAuto}, MinerConfig(), {}, db,
                             test_support::GroupRequest("g"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(EngineRegistryTest, EqualBinEnginesRejectFewerThanOneBin) {
  // The discretizers CHECK their bin count; through Mine a bad option is
  // an error the caller can report, never an abort.
  data::Dataset db = MakeTinyDataset();
  EngineOptions opts;
  opts.equal_bins = 0;
  for (EngineKind kind :
       {EngineKind::kBinnedEqualWidth, EngineKind::kBinnedEqualFreq}) {
    auto result = engine::Mine({kind}, MinerConfig(), opts, db,
                               test_support::GroupRequest("g"));
    ASSERT_FALSE(result.ok()) << engine::EngineName(kind);
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("equal_bins"),
              std::string::npos)
        << result.status().message();
  }
}

TEST(EngineRegistryTest, EveryEngineMinesTheSameRequest) {
  // The uniform contract: one dataset, one request, every engine. Each
  // must accept the request and complete; the lattice engines must also
  // find the planted contrast.
  data::Dataset db = MakeTinyDataset();
  auto gi = data::GroupInfo::Create(db, 0);
  ASSERT_TRUE(gi.ok());

  MinerConfig cfg;
  cfg.max_depth = 2;
  EngineOptions opts;
  opts.shard_count = 2;
  opts.window_rows = 0;

  for (const EngineRow& entry : Engines()) {
    auto result = engine::Mine({entry.kind}, cfg, opts, db, GroupsRequest(*gi));
    ASSERT_TRUE(result.ok())
        << entry.name << ": " << result.status().ToString();
    EXPECT_EQ(result->completion, core::Completion::kComplete)
        << entry.name;
    EXPECT_EQ(result->group_names.size(), 2u) << entry.name;
    if (entry.kind == EngineKind::kSerial ||
        entry.kind == EngineKind::kParallel ||
        entry.kind == EngineKind::kWindow) {
      EXPECT_FALSE(result->contrasts.empty()) << entry.name;
    }
  }
}

TEST(EngineRegistryTest, EnginesRejectInvalidConfigAndRequest) {
  data::Dataset db = MakeTinyDataset();
  MinerConfig bad;
  bad.alpha = 2.0;
  for (const EngineRow& entry : Engines()) {
    auto result = engine::Mine({entry.kind}, bad, {}, db,
                               test_support::GroupRequest("g"));
    EXPECT_FALSE(result.ok())
        << entry.name << " accepted alpha = 2.0";
  }

  for (const EngineRow& entry : Engines()) {
    auto result = engine::Mine({entry.kind}, MinerConfig(), {}, db,
                               test_support::GroupRequest("no_such_attr"));
    EXPECT_FALSE(result.ok())
        << entry.name << " accepted an unknown group attribute";
  }
}

TEST(EngineRegistryTest, WindowEngineMinesOnlyTheTail) {
  // First 300 rows: x <= 50 ⇒ "a". Last 300 rows: the correlation is
  // inverted. A window engine over the last 300 rows must find the
  // inverted pattern, proving it really restricted to the tail.
  util::Rng rng(7);
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int x = b.AddContinuous("x");
  for (int i = 0; i < 600; ++i) {
    double v = rng.Uniform(0.0, 100.0);
    bool lo = v <= 50.0;
    bool head = i < 300;
    bool a = (head == lo) ? rng.Bernoulli(0.95) : rng.Bernoulli(0.05);
    b.AppendCategorical(g, a ? "a" : "b");
    b.AppendContinuous(x, v);
  }
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());

  MinerConfig cfg;
  cfg.max_depth = 1;
  EngineOptions opts;
  opts.window_rows = 300;
  auto spec = ParseEngine("window");
  ASSERT_TRUE(spec.ok());
  auto result =
      engine::Mine(*spec, cfg, opts, *db, test_support::GroupRequest("g"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->contrasts.empty());

  // In the tail the correlation is inverted: "a" lives in high x and
  // "b" in low x. Whichever group dominates the top pattern, its
  // interval must sit on the tail's side — the head's (or the full
  // dataset's washed-out mixture) would point the other way.
  ASSERT_EQ(result->group_names.size(), 2u);
  const core::ContrastPattern& top = result->contrasts.front();
  const core::Item& item = top.itemset.item(0);
  size_t heavy = top.counts[0] >= top.counts[1] ? 0 : 1;
  if (result->group_names[heavy] == "a") {
    EXPECT_GT(item.lo, 25.0) << "tail 'a' pattern should cover high x, got "
                             << top.itemset.Key();
  } else {
    EXPECT_LT(item.hi, 75.0) << "tail 'b' pattern should cover low x, got "
                             << top.itemset.Key();
  }
}

}  // namespace
}  // namespace sdadcs
