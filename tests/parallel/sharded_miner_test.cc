#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/requests.h"
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

}  // namespace
}  // namespace sdadcs::parallel
