#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <latch>
#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>

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

TEST(ShardedMinerTest, ByteIdenticalToSerialIncludingCounters) {
  // Stronger than the pattern-set equality the level-parallel miner can
  // promise: the sharded coordinator replays the serial decision order
  // exactly, so rendered output AND node counters must match.
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
  // ShardPlan caps the shard count at the row count; surplus shards
  // simply vanish instead of producing empty-range corner cases.
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
  // The paged backend under shard fan-out: four shards pin and release
  // mmap-backed chunks from pool threads at once while the cap forces
  // evictions. Output must match the dense serial mine byte for byte,
  // the mine must really page, and residency must stay under the cap.
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

// A dataset big enough that (a) counting scans actually fan out (rows
// past the min-fanout floor) and (b) the full run takes far longer than
// the stop round-trips asserted below.
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

TEST(ShardedMinerTest, CancelAtMergeBarrierDrainsSortedPartials) {
  // Cancel lands while shard fan-outs are in flight; the coordinator
  // observes it at the next merge-barrier checkpoint, the level drains,
  // and the partial top-k comes back sorted with completion kCancelled.
  synth::NamedDataset sc = BigDataset();
  core::MinerConfig cfg = BaseConfig();
  cfg.max_depth = 3;

  util::RunControl control;
  core::MineRequest request;
  request.group_attr = sc.group_attr;
  request.run_control = control;

  util::StatusOr<core::MiningResult> result =
      util::Status::Internal("not run");
  std::thread worker([&] {
    result = core::Miner(cfg, 4).Mine(sc.db, request);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  util::WallTimer unblock;
  control.Cancel();
  worker.join();
  EXPECT_LT(unblock.Seconds(), 0.1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->completion, core::Completion::kCancelled);
  ExpectSortedByMeasure(result->contrasts);
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
  // Only a mine that starts alone gets a team. A second one, started
  // while the first blocks in a progress report, builds none and scans
  // inline: its result must still render like serial, and under a node
  // budget it must stop where a solo sharded mine stops, since the
  // inline path keeps the merge-barrier checkpoints. The first resumes
  // once the second reports, so it too scans inline while both run and
  // fans out again after; its result must render like serial as well.
  synth::NamedDataset nd = synth::MakeUciLike("adult", /*seed=*/7);
  const core::MinerConfig cfg = BaseConfig();
  auto request = [&](uint64_t budget) {
    core::MineRequest r = GroupRequest(nd.group_attr, nd.groups);
    if (budget > 0) r.run_control.set_node_budget(budget);
    return r;
  };
  auto serial = core::Miner(cfg).Mine(nd.db, request(0));
  ASSERT_TRUE(serial.ok());

  // 0 = no budget. Budgets 20, 60 and 300 stop this mine at a scan whose
  // barrier checkpoint decides where it stops.
  for (uint64_t budget : {0, 20, 60, 150, 300}) {
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
