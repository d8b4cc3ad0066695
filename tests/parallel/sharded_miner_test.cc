#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/reports.h"
#include "common/requests.h"
#include "common/threads.h"
#include "core/contrast.h"
#include "core/miner.h"
#include "data/chunks.h"
#include "data/spill.h"
#include "synth/scaling.h"
#include "synth/simulated.h"
#include "synth/uci_like.h"
#include "util/timer.h"

namespace sdadcs::parallel {
namespace {

using test_support::GroupRequest;
using test_support::NewThreadsSince;
using test_support::RenderReports;
using test_support::ThreadIds;

core::MinerConfig BaseConfig() {
  core::MinerConfig cfg;
  cfg.max_depth = 2;
  return cfg;
}

// Byte-exact rendering (same shape as the integration differential
// goldens): itemset key, exact counts, full-precision statistics.
std::string Render(const std::vector<core::ContrastPattern>& patterns) {
  std::string out;
  char buf[512];
  for (const core::ContrastPattern& p : patterns) {
    out += p.itemset.Key();
    for (double c : p.counts) {
      std::snprintf(buf, sizeof(buf), " %.17g", c);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  " | diff=%.17g measure=%.17g chi2=%.17g p=%.17g\n",
                  p.diff, p.measure, p.chi2, p.p_value);
    out += buf;
  }
  return out;
}

// Every counter of a run by name, so a mismatch names its field.
std::vector<std::pair<std::string, uint64_t>> CountersOf(
    const core::MiningCounters& c) {
  return {{"partitions_evaluated", c.partitions_evaluated},
          {"sdad_calls", c.sdad_calls},
          {"pruned_lookup", c.pruned_lookup},
          {"pruned_min_support", c.pruned_min_support},
          {"pruned_low_expected", c.pruned_low_expected},
          {"pruned_redundant", c.pruned_redundant},
          {"pruned_pure", c.pruned_pure},
          {"pruned_oe_measure", c.pruned_oe_measure},
          {"pruned_oe_chi2", c.pruned_oe_chi2},
          {"unproductive", c.unproductive},
          {"not_independently_productive", c.not_independently_productive},
          {"merges", c.merges},
          {"chi2_tests", c.chi2_tests},
          {"truncated_candidates", c.truncated_candidates},
          {"abandoned_candidates", c.abandoned_candidates}};
}

// Rendered patterns, every counter and the completion agree.
void ExpectSameRun(const core::MiningResult& got,
                   const core::MiningResult& want, const std::string& label) {
  EXPECT_EQ(Render(got.contrasts), Render(want.contrasts)) << label;
  EXPECT_EQ(CountersOf(got.counters), CountersOf(want.counters)) << label;
  EXPECT_EQ(got.completion, want.completion) << label;
}

TEST(ShardedMinerTest, ByteIdenticalToSerialIncludingCounters) {
  // The team replays the serial decision order exactly, so rendered
  // output AND node counters must match.
  synth::ScalingOptions opt;
  opt.rows = 12000;
  opt.continuous_features = 6;
  opt.categorical_features = 3;
  synth::NamedDataset sc = synth::MakeScalingDataset(opt);
  core::MinerConfig cfg = BaseConfig();

  auto serial = core::Miner(cfg).Mine(sc.db, GroupRequest(sc.group_attr));
  ASSERT_TRUE(serial.ok());
  for (size_t shards : {1u, 3u, 4u, 7u}) {
    auto sharded =
        core::Miner(cfg, shards).Mine(sc.db, GroupRequest(sc.group_attr));
    ASSERT_TRUE(sharded.ok()) << shards << " shards";
    EXPECT_EQ(Render(serial->contrasts), Render(sharded->contrasts))
        << shards << " shards";
    EXPECT_EQ(serial->counters.partitions_evaluated,
              sharded->counters.partitions_evaluated)
        << shards << " shards";
    EXPECT_EQ(serial->counters.sdad_calls, sharded->counters.sdad_calls)
        << shards << " shards";
  }
}

TEST(ShardedMinerTest, MoreShardsThanRowsStillExact) {
  // A shard count far past the rows and the cores builds a team only
  // min(shards, cores) wide, which mines like serial.
  data::Dataset db = synth::MakeSimulated3(300);
  auto serial = core::Miner(BaseConfig()).Mine(db, GroupRequest("Group"));
  auto sharded =
      core::Miner(BaseConfig(), 1000).Mine(db, GroupRequest("Group"));
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(Render(serial->contrasts), Render(sharded->contrasts));
}

TEST(ShardedMinerTest, ZeroShardsResolvesToHardwareConcurrency) {
  core::Miner miner(BaseConfig(), 0);
  size_t expected = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(miner.num_shards(), expected);
  data::Dataset db = synth::MakeSimulated3(300);
  auto result = miner.Mine(db, GroupRequest("Group"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->completion, core::Completion::kComplete);
}

TEST(ShardedMinerTest, InvalidConfigAndUnknownGroupRejected) {
  data::Dataset db = synth::MakeSimulated3(300);
  core::MinerConfig bad = BaseConfig();
  bad.alpha = 1.5;
  auto result = core::Miner(bad, 2).Mine(db, GroupRequest("Group"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("alpha"), std::string::npos);
  EXPECT_FALSE(
      core::Miner(BaseConfig(), 2).Mine(db, GroupRequest("nope")).ok());
}

TEST(ShardedMinerTest, CappedResidencyShardedMineMatchesDenseSerial) {
  // The paged backend under the team: four members mine combinations at
  // once, each pinning and releasing the mmap-backed chunks its scans
  // touch, while the cap forces evictions. Output must match the dense
  // serial mine byte for byte, the mine must really page, and residency
  // must stay under the cap.
  core::MinerConfig cfg = BaseConfig();
  cfg.top_k = 50;
  for (const char* name : {"adult", "shuttle"}) {
    synth::NamedDataset nd = synth::MakeUciLike(name, /*seed=*/7);
    const core::MineRequest request =
        GroupRequest(nd.group_attr, nd.groups);
    auto dense = core::Miner(cfg).Mine(nd.db, request);
    ASSERT_TRUE(dense.ok()) << name;

    std::string spill_path =
        testing::TempDir() + "sharded_capped_" + name + ".spill";
    ASSERT_TRUE(data::WriteSpill(nd.db, spill_path).ok()) << name;
    data::SpillOptions sopt;
    sopt.chunk_rows = nd.db.num_rows() / 16 + 1;
    sopt.max_resident_bytes = nd.db.MemoryUsage() / 4;
    auto paged = data::OpenSpill(spill_path, sopt);
    std::remove(spill_path.c_str());  // the mapping keeps the file alive
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();

    auto capped = core::Miner(cfg, 4).Mine(*paged, request);
    ASSERT_TRUE(capped.ok()) << name;
    EXPECT_EQ(Render(capped->contrasts), Render(dense->contrasts)) << name;

    data::ChunkStats cs = paged->chunk_store()->stats();
    EXPECT_GT(cs.loads, 0u) << name;
    EXPECT_GT(cs.evictions, 0u) << name;
    EXPECT_LE(cs.peak_resident_bytes, sopt.max_resident_bytes) << name;
  }
}

// A dataset big enough that the full run takes far longer than the stop
// round-trips asserted below.
synth::NamedDataset BigDataset() {
  synth::ScalingOptions opt;
  opt.rows = 20000;
  opt.continuous_features = 40;
  opt.categorical_features = 10;
  return synth::MakeScalingDataset(opt);
}

void ExpectSortedByMeasure(const std::vector<core::ContrastPattern>& ps) {
  for (size_t i = 1; i < ps.size(); ++i) {
    EXPECT_GE(ps[i - 1].measure, ps[i].measure) << "rank " << i;
  }
}

// Data wide enough that level 2 (120 combinations) mines on a team of
// up to four members. Its top 10 changes under combinations in flight
// often enough that some must be mined again.
synth::NamedDataset WideDataset() {
  synth::ScalingOptions opt;
  opt.rows = 4000;
  opt.continuous_features = 12;
  opt.categorical_features = 4;
  return synth::MakeScalingDataset(opt);
}

// Data narrow and tall enough that level 1 (9 combinations) mines on
// the team in one batch.
synth::NamedDataset NarrowDataset() {
  synth::ScalingOptions opt;
  opt.rows = 12000;
  opt.continuous_features = 6;
  opt.categorical_features = 3;
  return synth::MakeScalingDataset(opt);
}

TEST(ShardedMinerTest, CombosOnTheTeamByteIdenticalToSerialIncludingCounters) {
  // A wide level's combinations mine on the team, each member against a
  // copy of the top-k, and commit in frontier order; a combination whose
  // threshold tests the committed top-k would answer otherwise is mined
  // again. The shapes: perfbench's (8 combinations on level 1, 28 on
  // level 2) at two seeds, the wide data at top 10 — also without
  // meaningful pruning, without it and optimistic pruning, and under
  // the Surprising measure, whose bound the threshold tests read —, and
  // adult's education contrast at depth 3.
  struct Shape {
    std::string name;
    synth::NamedDataset nd;
    core::MineRequest request;
    core::MinerConfig cfg;
  };
  std::vector<Shape> shapes;
  for (uint64_t seed : {1u, 2u}) {
    synth::ScalingOptions opt;
    opt.rows = 20000;
    opt.continuous_features = 6;
    opt.categorical_features = 2;
    opt.seed = seed;
    Shape shape{"perfbench seed " + std::to_string(seed),
                synth::MakeScalingDataset(opt),
                GroupRequest("batch", {"Normal", "Anomalous"}), BaseConfig()};
    shape.cfg.top_k = 10;
    shapes.push_back(std::move(shape));
  }
  for (const std::string variant : {"", "np", "np no-oe", "surprising"}) {
    synth::NamedDataset nd = WideDataset();
    core::MineRequest request = GroupRequest(nd.group_attr);
    Shape shape{"wide top 10 " + variant, std::move(nd), request,
                BaseConfig()};
    shape.cfg.top_k = 10;
    shape.cfg.meaningful_pruning = variant != "np" && variant != "np no-oe";
    shape.cfg.optimistic_pruning = variant != "np no-oe";
    if (variant == "surprising") {
      shape.cfg.measure = core::MeasureKind::kSurprising;
    }
    shapes.push_back(std::move(shape));
  }
  {
    Shape shape{"adult education", synth::MakeUciLike("adult", /*seed=*/7),
                GroupRequest("education"), BaseConfig()};
    shape.cfg.max_depth = 3;
    shape.cfg.top_k = 20;
    shapes.push_back(std::move(shape));
  }
  for (const Shape& shape : shapes) {
    auto serial = core::Miner(shape.cfg).Mine(shape.nd.db, shape.request);
    ASSERT_TRUE(serial.ok()) << shape.name;
    ASSERT_EQ(serial->completion, core::Completion::kComplete);
    for (size_t shards : {1u, 2u, 4u, 8u}) {
      auto team =
          core::Miner(shape.cfg, shards).Mine(shape.nd.db, shape.request);
      ASSERT_TRUE(team.ok()) << shape.name;
      ExpectSameRun(*team, *serial,
                    shape.name + ", " + std::to_string(shards) + " shards");
    }
  }
}

// Mines `nd` under `cfg` with `shards` shards, streaming anytime
// progress reports into `reports`.
util::StatusOr<core::MiningResult> MineRecordingReports(
    const synth::NamedDataset& nd, const core::MinerConfig& cfg,
    size_t shards, std::vector<util::RunProgress>* reports) {
  core::MineRequest request = GroupRequest(nd.group_attr, nd.groups);
  request.run_control.set_anytime(true);
  request.run_control.set_progress_callback(
      [reports](const util::RunProgress& p) { reports->push_back(p); });
  return core::Miner(cfg, shards).Mine(nd.db, request);
}

// The combinations of each level, in level order, as the reports that
// open the levels announce them.
std::vector<uint64_t> LevelSizes(
    const std::vector<util::RunProgress>& reports) {
  std::vector<uint64_t> sizes;
  for (const util::RunProgress& p : reports) {
    if (p.candidates_done == 0) sizes.push_back(p.candidates_total);
  }
  return sizes;
}

TEST(ShardedMinerTest, NarrowLevelsOnTheTeamMatchSerialIncludingReports) {
  // Levels with no more combinations than a team has members mine on
  // the team as well, and a level of one combination mines inline. The
  // shapes: two continuous attributes at depth 2, and transfusion's four
  // at depth 4, both at top 2, whose threshold moves within a level, so
  // some combinations fail the replay check and are mined again inline.
  // Patterns, every counter and the whole sequence of progress reports
  // must equal serial's.
  struct Shape {
    std::string name;
    synth::NamedDataset nd;
    core::MinerConfig cfg;
    std::vector<uint64_t> level_sizes;
  };
  std::vector<Shape> shapes;
  {
    synth::ScalingOptions opt;
    opt.rows = 20000;
    opt.continuous_features = 2;
    opt.categorical_features = 0;
    Shape shape{"scaling 2 continuous", synth::MakeScalingDataset(opt),
                BaseConfig(), {2, 1}};
    shape.cfg.top_k = 2;
    shapes.push_back(std::move(shape));
  }
  {
    Shape shape{"transfusion", synth::MakeUciLike("transfusion", /*seed=*/7),
                BaseConfig(), {4, 6, 4, 1}};
    shape.cfg.max_depth = 4;
    shape.cfg.top_k = 2;
    shapes.push_back(std::move(shape));
  }
  for (const Shape& shape : shapes) {
    std::vector<util::RunProgress> serial_reports;
    auto serial =
        MineRecordingReports(shape.nd, shape.cfg, 1, &serial_reports);
    ASSERT_TRUE(serial.ok()) << shape.name;
    ASSERT_EQ(serial->completion, core::Completion::kComplete);
    ASSERT_EQ(LevelSizes(serial_reports), shape.level_sizes) << shape.name;
    for (size_t shards : {2u, 4u, 8u}) {
      const std::string label =
          shape.name + ", " + std::to_string(shards) + " shards";
      std::vector<util::RunProgress> reports;
      auto team = MineRecordingReports(shape.nd, shape.cfg, shards, &reports);
      ASSERT_TRUE(team.ok()) << label;
      ExpectSameRun(*team, *serial, label);
      EXPECT_EQ(RenderReports(reports), RenderReports(serial_reports))
          << label;
    }
  }
}

// Mines `nd` with `shards` shards under a fresh RunControl, cancelling
// from the progress report that says `done` combinations of `level`
// have committed.
util::StatusOr<core::MiningResult> MineCancelledAtReport(
    const synth::NamedDataset& nd, size_t shards, int level, uint64_t done,
    uint64_t* level_total) {
  core::MineRequest request = GroupRequest(nd.group_attr);
  request.run_control.set_progress_callback(
      [&request, level, done, level_total](const util::RunProgress& p) {
        if (p.level != level || p.candidates_done != done) return;
        *level_total = p.candidates_total;
        request.run_control.Cancel();
      });
  return core::Miner(BaseConfig(), shards).Mine(nd.db, request);
}

// A cancel from a progress report stops a mine at a fixed amount of
// work, whatever the host's speed: the combinations committed before
// the report stand, and nothing commits after it — not even the
// combinations the team had in flight. The rest of the level counts as
// abandoned, and the partial result equals a serial mine's cancelled
// from the same report, counters included.
void ExpectCancelStopsAtTheReport(const synth::NamedDataset& nd, int level,
                                  uint64_t done) {
  uint64_t serial_total = 0;
  auto serial = MineCancelledAtReport(nd, 1, level, done, &serial_total);
  ASSERT_TRUE(serial.ok());
  ASSERT_GT(serial_total, done);
  for (size_t shards : {2u, 4u}) {
    const std::string label = std::to_string(shards) + " shards";
    uint64_t total = 0;
    auto team = MineCancelledAtReport(nd, shards, level, done, &total);
    ASSERT_TRUE(team.ok()) << label;
    EXPECT_EQ(team->completion, core::Completion::kCancelled) << label;
    ExpectSortedByMeasure(team->contrasts);
    EXPECT_EQ(team->counters.abandoned_candidates, total - done) << label;
    ExpectSameRun(*team, *serial, label);
  }
}

TEST(ShardedMinerTest, CancelOnATeamLevelCommitsNothingAfterTheReport) {
  // Level 2 of the wide data mines on the team in batches of up to 64
  // combinations, so the cancel lands with the rest of a batch mined.
  ExpectCancelStopsAtTheReport(WideDataset(), /*level=*/2, /*done=*/40);
}

TEST(ShardedMinerTest, CancelOnANarrowLevelCommitsNothingAfterTheReport) {
  // Level 1 of the narrow data mines on the team in one batch of 9.
  ExpectCancelStopsAtTheReport(NarrowDataset(), /*level=*/1, /*done=*/4);
}

TEST(ShardedMinerTest, DeadlineDrainsSortedPartialsWithCompletion) {
  synth::NamedDataset sc = BigDataset();
  core::MinerConfig cfg = BaseConfig();
  cfg.max_depth = 3;

  util::RunControl control;
  control.set_deadline_after(std::chrono::milliseconds(60));
  core::MineRequest request;
  request.group_attr = sc.group_attr;
  request.run_control = control;

  util::WallTimer timer;
  auto result = core::Miner(cfg, 4).Mine(sc.db, request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->completion, core::Completion::kDeadlineExceeded);
  // The drain must be prompt: well under the unbounded runtime.
  EXPECT_LT(timer.Seconds(), 2.0);
  ExpectSortedByMeasure(result->contrasts);
}

TEST(ShardedMinerTest, NodeBudgetDrainsSortedPartialsWithCompletion) {
  synth::NamedDataset sc = BigDataset();
  core::MinerConfig cfg = BaseConfig();
  cfg.max_depth = 3;

  util::RunControl control;
  control.set_node_budget(2000);
  core::MineRequest request;
  request.group_attr = sc.group_attr;
  request.run_control = control;

  auto result = core::Miner(cfg, 4).Mine(sc.db, request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->completion, core::Completion::kBudgetExhausted);
  EXPECT_GT(result->counters.abandoned_candidates, 0u);
  ExpectSortedByMeasure(result->contrasts);
}

// Mines `request` on 4 shards and returns how many threads beyond the
// starting count its progress reports saw (0 = it built no team). Calls
// `on_report` after each report. `request` must carry no progress
// callback of its own.
size_t MineCountingTeamThreads(
    const data::Dataset& db, core::MineRequest request,
    util::StatusOr<core::MiningResult>* out,
    const std::function<void()>& on_report = [] {}) {
  const std::set<std::string> before = ThreadIds();
  size_t during = 0;
  bool reported = false;
  request.run_control.set_progress_callback(
      [&](const util::RunProgress&) {
        reported = true;
        during = std::max(during, NewThreadsSince(before));
        on_report();
      });
  *out = core::Miner(BaseConfig(), 4).Mine(db, request);
  EXPECT_TRUE(reported) << "no progress report";
  return during;
}

TEST(ShardedMinerTest, MineThatFindsTheTeamTakenScansInlineIdentically) {
  // The process has one team. A second mine, started while the first
  // holds it and blocks in a progress report, builds none and mines
  // inline (or takes the team over if the first ends first): its result
  // must still render like serial, and under a node budget it must stop
  // where a solo sharded mine stops, since a combination mined on the
  // team is charged whole at its commit or mined again inline. The first
  // resumes once the second reports, so it mines on fewer members while
  // both run; its result must render like serial as well.
  synth::NamedDataset nd = synth::MakeUciLike("adult", /*seed=*/7);
  const core::MinerConfig cfg = BaseConfig();
  auto request = [&](uint64_t budget) {
    core::MineRequest r = GroupRequest(nd.group_attr, nd.groups);
    if (budget > 0) r.run_control.set_node_budget(budget);
    return r;
  };
  auto serial = core::Miner(cfg).Mine(nd.db, request(0));
  ASSERT_TRUE(serial.ok());

  // 0 = no budget. Budgets 20 and 60 stop this mine on level 1 (13
  // combinations), 150 to 1000 on level 2 (78); a solo mine mines both
  // on the team.
  for (uint64_t budget : {0, 20, 60, 150, 300, 600, 1000}) {
    auto want = budget == 0 ? serial
                            : core::Miner(cfg, 4).Mine(nd.db, request(budget));
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(want->completion, budget == 0
                                    ? core::Completion::kComplete
                                    : core::Completion::kBudgetExhausted);

    std::latch holding(1);
    std::latch release(1);
    bool first_report = true;
    core::MineRequest hold = request(0);
    hold.run_control.set_progress_callback([&](const util::RunProgress&) {
      if (!first_report) return;
      first_report = false;
      holding.count_down();
      release.wait();
    });
    util::StatusOr<core::MiningResult> held =
        util::Status::Internal("not run");
    std::thread holder(
        [&] { held = core::Miner(cfg, 4).Mine(nd.db, hold); });
    holding.wait();

    util::StatusOr<core::MiningResult> second =
        util::Status::Internal("not run");
    bool released = false;
    const size_t threads = MineCountingTeamThreads(
        nd.db, request(budget), &second, [&] {
          if (released) return;
          released = true;
          release.count_down();
        });
    if (!released) release.count_down();  // the second mine never reported
    holder.join();

    ASSERT_TRUE(second.ok()) << "budget " << budget;
    EXPECT_EQ(threads, 0u) << "budget " << budget;
    EXPECT_EQ(second->completion, want->completion) << "budget " << budget;
    EXPECT_EQ(Render(second->contrasts), Render(want->contrasts))
        << "budget " << budget;
    EXPECT_EQ(second->counters.partitions_evaluated,
              want->counters.partitions_evaluated)
        << "budget " << budget;
    ASSERT_TRUE(held.ok());
    EXPECT_EQ(Render(held->contrasts), Render(serial->contrasts));
  }
}

TEST(ShardedMinerTest, ConcurrentMinesShareTheTeamAndMatchSerial) {
  // Two mines at once: the one holding the team mines on one member
  // fewer, the other mines inline and takes the team over when the
  // first ends. Each must equal its serial mine, counters included.
  synth::NamedDataset nd = WideDataset();
  std::vector<core::MinerConfig> cfgs(2, BaseConfig());
  cfgs[1].top_k = 10;
  std::vector<util::StatusOr<core::MiningResult>> serial;
  for (const core::MinerConfig& cfg : cfgs) {
    serial.push_back(
        core::Miner(cfg).Mine(nd.db, GroupRequest(nd.group_attr)));
    ASSERT_TRUE(serial.back().ok());
  }
  for (int round = 0; round < 3; ++round) {
    std::vector<util::StatusOr<core::MiningResult>> got(
        2, util::Status::Internal("not run"));
    auto mine = [&](size_t i) {
      got[i] = core::Miner(cfgs[i], 4).Mine(nd.db, GroupRequest(nd.group_attr));
    };
    std::thread other(mine, 1);
    mine(0);
    other.join();
    for (size_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(got[i].ok()) << "mine " << i;
      ExpectSameRun(*got[i], *serial[i],
                    "round " + std::to_string(round) + ", mine " +
                        std::to_string(i));
    }
  }
}

TEST(ShardedMinerTest, FailedOrCancelledMineReleasesTheTeam) {
  // The team is min(shards, cores) wide, the mining thread included.
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  const size_t workers = std::min<size_t>(4, cores) - 1;
  synth::NamedDataset nd = synth::MakeUciLike("adult", /*seed=*/7);
  // A fresh request (and so a fresh RunControl) per mine.
  auto plain = [&] { return GroupRequest(nd.group_attr, nd.groups); };
  util::StatusOr<core::MiningResult> out = util::Status::Internal("unset");
  ASSERT_EQ(MineCountingTeamThreads(nd.db, plain(), &out), workers);

  core::MinerConfig bad = BaseConfig();
  bad.alpha = 1.5;
  EXPECT_FALSE(core::Miner(bad, 4).Mine(nd.db, plain()).ok());
  EXPECT_EQ(MineCountingTeamThreads(nd.db, plain(), &out), workers)
      << "after an invalid config";

  EXPECT_FALSE(core::Miner(BaseConfig(), 4)
                   .Mine(nd.db, GroupRequest("nope"))
                   .ok());
  EXPECT_EQ(MineCountingTeamThreads(nd.db, plain(), &out), workers)
      << "after an unknown group";

  core::MineRequest cancelled = GroupRequest(nd.group_attr, nd.groups);
  cancelled.run_control.set_progress_callback(
      [&cancelled](const util::RunProgress&) {
        cancelled.run_control.Cancel();
      });
  auto stopped = core::Miner(BaseConfig(), 4).Mine(nd.db, cancelled);
  ASSERT_TRUE(stopped.ok());
  EXPECT_EQ(stopped->completion, core::Completion::kCancelled);
  EXPECT_EQ(MineCountingTeamThreads(nd.db, plain(), &out), workers)
      << "after a cancelled mine";
}

}  // namespace
}  // namespace sdadcs::parallel
