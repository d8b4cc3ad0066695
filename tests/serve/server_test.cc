// Server facade end to end: cached results are byte-identical to a
// direct Miner::Mine(MineRequest) run, identical concurrent requests
// coalesce into one underlying run, a cancelled waiter never poisons
// the shared cache entry, and over-capacity load is shed explicitly.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/contrast.h"
#include "core/miner.h"
#include "engine/registry.h"
#include "gtest/gtest.h"
#include "serve/dataset_registry.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/run_control.h"

namespace sdadcs::serve {
namespace {

// Byte-exact rendering (same idiom as core/miner_test): any numeric or
// ordering drift between the served and the directly mined result shows
// up as a string diff.
std::string RenderResult(const std::vector<core::ContrastPattern>& patterns) {
  std::string out;
  char buf[512];
  for (const core::ContrastPattern& p : patterns) {
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

core::MinerConfig TestConfig() {
  core::MinerConfig config;
  config.max_depth = 2;
  config.top_k = 20;
  return config;
}

MineCall BreastCall() {
  MineCall call;
  call.dataset = "breast";
  call.config = TestConfig();
  call.group_attr = "class";
  return call;
}

// Blocks the mining engine mid-run via the RunControl progress callback,
// so tests can deterministically stage followers, cancellations and
// rejections while a run is in flight.
class MiningGate {
 public:
  util::RunControl Control() {
    util::RunControl control;
    control.set_progress_callback([this](const util::RunProgress&) {
      std::unique_lock<std::mutex> lock(mu_);
      mining_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    });
    return control;
  }

  void AwaitMining() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return mining_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool mining_ = false;
  bool released_ = false;
};

TEST(ServerTest, ColdMissThenWarmHitByteIdenticalToDirectMine) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Load("breast", "synth:breast").ok());

  MineOutcome cold = server.Mine(BreastCall());
  ASSERT_EQ(cold.verdict, Verdict::kOk) << cold.status.message();
  EXPECT_EQ(cold.cache, CacheStatus::kMiss);
  EXPECT_EQ(cold.engine, core::EngineKind::kSerial);
  ASSERT_NE(cold.result, nullptr);
  EXPECT_EQ(cold.result->completion, core::Completion::kComplete);
  EXPECT_GT(cold.result->contrasts.size(), 0u);

  MineOutcome warm = server.Mine(BreastCall());
  ASSERT_EQ(warm.verdict, Verdict::kOk);
  EXPECT_EQ(warm.cache, CacheStatus::kHit);
  // The hit serves the very same immutable result, with no second run.
  EXPECT_EQ(warm.result.get(), cold.result.get());
  EXPECT_EQ(server.Stats().runs_started, 1u);

  // Byte-identical to mining the same spec directly, outside the server.
  auto db = LoadDatasetFromSpec("synth:breast");
  ASSERT_TRUE(db.ok());
  core::MineRequest request;
  request.group_attr = "class";
  auto direct = core::Miner(TestConfig()).Mine(*db, request);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(RenderResult(warm.result->contrasts),
            RenderResult(direct->contrasts));
}

TEST(ServerTest, UnknownDatasetAndInvalidConfigFailFast) {
  Server server(ServerOptions{});
  MineCall call = BreastCall();
  MineOutcome missing = server.Mine(call);
  EXPECT_EQ(missing.verdict, Verdict::kError);
  EXPECT_EQ(missing.status.code(), util::StatusCode::kNotFound);

  ASSERT_TRUE(server.Load("breast", "synth:breast").ok());
  call.config.alpha = 2.0;
  MineOutcome invalid = server.Mine(call);
  EXPECT_EQ(invalid.verdict, Verdict::kError);
  EXPECT_EQ(invalid.status.code(), util::StatusCode::kInvalidArgument);
  // Neither request touched the cache or an admission slot.
  ServerStats s = server.Stats();
  EXPECT_EQ(s.cache.misses, 0u);
  EXPECT_EQ(s.admission.admitted, 0u);
  EXPECT_EQ(s.errors, 2u);
}

TEST(ServerTest, IdenticalConcurrentRequestsCostOneRun) {
  ServerOptions options;
  options.max_concurrent_runs = 4;  // capacity is not the constraint here
  Server server(options);
  ASSERT_TRUE(server.Load("breast", "synth:breast").ok());

  MiningGate gate;
  MineCall leader_call = BreastCall();
  leader_call.run_control = gate.Control();
  MineOutcome leader_out;
  std::thread leader([&] { leader_out = server.Mine(leader_call); });
  gate.AwaitMining();

  constexpr int kFollowers = 3;
  std::vector<MineOutcome> follower_out(kFollowers);
  std::vector<std::thread> followers;
  for (int i = 0; i < kFollowers; ++i) {
    followers.emplace_back(
        [&, i] { follower_out[i] = server.Mine(BreastCall()); });
  }
  // The followers must be coalesced onto the in-flight run before the
  // leader is allowed to finish — this is what makes the test
  // deterministic rather than a race.
  while (server.Stats().cache.coalesced <
         static_cast<uint64_t>(kFollowers)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.Release();
  leader.join();
  for (std::thread& t : followers) t.join();

  ASSERT_EQ(leader_out.verdict, Verdict::kOk) << leader_out.status.message();
  EXPECT_EQ(leader_out.cache, CacheStatus::kMiss);
  for (const MineOutcome& out : follower_out) {
    ASSERT_EQ(out.verdict, Verdict::kOk);
    EXPECT_EQ(out.cache, CacheStatus::kShared);
    // Everyone shares the leader's immutable result object.
    EXPECT_EQ(out.result.get(), leader_out.result.get());
  }
  EXPECT_EQ(server.Stats().runs_started, 1u);
  EXPECT_EQ(server.Stats().requests, 1u + kFollowers);
}

TEST(ServerTest, CancelledWaiterDoesNotPoisonTheSharedEntry) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Load("breast", "synth:breast").ok());

  MiningGate gate;
  MineCall leader_call = BreastCall();
  leader_call.run_control = gate.Control();
  MineOutcome leader_out;
  std::thread leader([&] { leader_out = server.Mine(leader_call); });
  gate.AwaitMining();

  // A follower joins the in-flight run, then cancels only itself.
  MineCall follower_call = BreastCall();
  util::RunControl follower_control;
  follower_call.run_control = follower_control;
  MineOutcome follower_out;
  std::thread follower([&] { follower_out = server.Mine(follower_call); });
  while (server.Stats().cache.coalesced < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  follower_control.Cancel();
  follower.join();
  EXPECT_EQ(follower_out.verdict, Verdict::kCancelled);
  EXPECT_EQ(follower_out.result, nullptr);

  // The leader was unaffected: it completes, publishes, and later
  // identical requests are served from the clean cache entry.
  gate.Release();
  leader.join();
  ASSERT_EQ(leader_out.verdict, Verdict::kOk) << leader_out.status.message();
  EXPECT_EQ(leader_out.result->completion, core::Completion::kComplete);

  MineOutcome warm = server.Mine(BreastCall());
  ASSERT_EQ(warm.verdict, Verdict::kOk);
  EXPECT_EQ(warm.cache, CacheStatus::kHit);
  EXPECT_EQ(warm.result.get(), leader_out.result.get());
  EXPECT_EQ(server.Stats().runs_started, 1u);
}

TEST(ServerTest, OverCapacityBypassRequestsAreShedNotBlocked) {
  ServerOptions options;
  options.max_concurrent_runs = 1;
  options.max_queue = 0;
  Server server(options);
  ASSERT_TRUE(server.Load("breast", "synth:breast").ok());

  MiningGate gate;
  MineCall leader_call = BreastCall();
  leader_call.run_control = gate.Control();
  MineOutcome leader_out;
  std::thread leader([&] { leader_out = server.Mine(leader_call); });
  gate.AwaitMining();

  // Bypass the cache so the burst cannot coalesce: each call needs its
  // own slot, and with the only slot held and no queue it must be shed
  // immediately — not blocked.
  MineCall burst = BreastCall();
  burst.use_cache = false;
  MineOutcome shed = server.Mine(burst);
  EXPECT_EQ(shed.verdict, Verdict::kRejectedBusy);
  EXPECT_EQ(shed.cache, CacheStatus::kBypass);
  EXPECT_EQ(shed.result, nullptr);

  gate.Release();
  leader.join();
  ASSERT_EQ(leader_out.verdict, Verdict::kOk);
  ServerStats s = server.Stats();
  EXPECT_EQ(s.rejected_busy, 1u);
  EXPECT_EQ(s.runs_started, 1u);
  EXPECT_EQ(s.admission.rejected_busy, 1u);
}

TEST(ServerTest, PartialResultsAnswerTheCallerButAreNotCached) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Load("breast", "synth:breast").ok());

  MineCall limited = BreastCall();
  limited.run_control =
      util::RunControl::WithDeadline(std::chrono::milliseconds(0));
  MineOutcome partial = server.Mine(limited);
  ASSERT_EQ(partial.verdict, Verdict::kOk) << partial.status.message();
  ASSERT_NE(partial.result, nullptr);
  EXPECT_EQ(partial.result->completion, core::Completion::kDeadlineExceeded);

  // The partial run was abandoned, not published: the next unlimited
  // request finds no entry and mines for real.
  ServerStats s = server.Stats();
  EXPECT_EQ(s.cache.inserts, 0u);
  EXPECT_EQ(s.cache.abandons, 1u);
  MineOutcome full = server.Mine(BreastCall());
  ASSERT_EQ(full.verdict, Verdict::kOk);
  EXPECT_EQ(full.cache, CacheStatus::kMiss);
  EXPECT_EQ(full.result->completion, core::Completion::kComplete);
  EXPECT_EQ(server.Stats().runs_started, 2u);
}

TEST(ServerTest, ServerDefaultsOnlyBoundTheUnlimited) {
  ServerOptions options;
  options.default_node_budget = 1;  // absurdly tight server-wide cap
  Server server(options);
  ASSERT_TRUE(server.Load("breast", "synth:breast").ok());

  // A request without its own budget inherits the server's and drains
  // almost immediately.
  MineOutcome capped = server.Mine(BreastCall());
  ASSERT_EQ(capped.verdict, Verdict::kOk);
  EXPECT_EQ(capped.result->completion, core::Completion::kBudgetExhausted);

  // A request with its own (generous) budget keeps it.
  MineCall own = BreastCall();
  own.run_control.set_node_budget(100000000);
  MineOutcome free_run = server.Mine(own);
  ASSERT_EQ(free_run.verdict, Verdict::kOk);
  EXPECT_EQ(free_run.result->completion, core::Completion::kComplete);
}

TEST(ServerTest, AutoResolvesByRowCount) {
  using core::EngineKind;
  EXPECT_EQ(ResolveEngine(EngineKind::kAuto, kAutoParallelRows - 1),
            EngineKind::kSerial);
  EXPECT_EQ(ResolveEngine(EngineKind::kAuto, kAutoParallelRows),
            EngineKind::kParallel);
  for (EngineKind kind : {EngineKind::kSerial, EngineKind::kParallel,
                          EngineKind::kSharded, EngineKind::kBeam}) {
    EXPECT_EQ(ResolveEngine(kind, 1), kind);
    EXPECT_EQ(ResolveEngine(kind, kAutoParallelRows), kind);
  }
}

TEST(ServerTest, EngineResolutionAndOneCacheUniverseForTheMinerEngines) {
  ServerOptions options;
  options.shard_count = 2;
  Server server(options);
  ASSERT_TRUE(server.Load("breast", "synth:breast").ok());

  // Breast has 699 rows, below the auto rule's threshold.
  MineCall auto_call = BreastCall();
  MineOutcome serial_out = server.Mine(auto_call);
  ASSERT_EQ(serial_out.verdict, Verdict::kOk);
  EXPECT_EQ(serial_out.engine, core::EngineKind::kSerial);
  EXPECT_EQ(serial_out.cache, CacheStatus::kMiss);

  // serial, parallel and sharded return the same bytes, so an explicit
  // parallel request hits the auto -> serial entry: it keeps its engine
  // name and key, and runs nothing.
  MineCall parallel_call = BreastCall();
  parallel_call.engine = core::EngineKind::kParallel;
  MineOutcome parallel_out = server.Mine(parallel_call);
  ASSERT_EQ(parallel_out.verdict, Verdict::kOk);
  EXPECT_EQ(parallel_out.engine, core::EngineKind::kParallel);
  EXPECT_EQ(parallel_out.cache, CacheStatus::kHit);
  EXPECT_EQ(parallel_out.key, serial_out.key);
  EXPECT_EQ(parallel_out.result, serial_out.result);
  EXPECT_EQ(server.Stats().runs_started, 1u);

  // Both warm paths keep hitting the one entry.
  EXPECT_EQ(server.Mine(auto_call).cache, CacheStatus::kHit);
  EXPECT_EQ(server.Mine(parallel_call).cache, CacheStatus::kHit);
  EXPECT_EQ(server.Stats().runs_started, 1u);
}

TEST(ServerTest, EveryRegistryEngineIsServableUnderItsCacheUniverseKey) {
  // The same dataset + config served through each engine of the table must
  // succeed. serial, parallel and sharded (core::Miner at any width)
  // share one cache universe, so they stamp one key and only the first
  // of them runs; every other engine lands in its own universe, with a
  // key distinct from all the others.
  ServerOptions options;
  options.shard_count = 2;
  options.window_rows = 200;
  Server server(options);
  ASSERT_TRUE(server.Load("breast", "synth:breast").ok());

  const std::set<core::EngineKind> miner_kinds = {
      core::EngineKind::kSerial, core::EngineKind::kParallel,
      core::EngineKind::kSharded};
  std::set<std::string> miner_keys;
  std::set<std::string> keys;
  size_t engines = 0;
  for (const engine::EngineRow& entry : engine::Engines()) {
    MineCall call = BreastCall();
    call.engine = entry.kind;
    MineOutcome out = server.Mine(call);
    ASSERT_EQ(out.verdict, Verdict::kOk)
        << entry.name << ": " << out.status.message();
    EXPECT_EQ(out.engine, entry.kind) << entry.name;
    ASSERT_NE(out.result, nullptr) << entry.name;
    EXPECT_EQ(out.result->completion, core::Completion::kComplete)
        << entry.name;
    if (miner_kinds.count(entry.kind) > 0) {
      EXPECT_EQ(out.cache, miner_keys.empty() ? CacheStatus::kMiss
                                              : CacheStatus::kHit)
          << entry.name;
      miner_keys.insert(out.key.ToString());
      keys.insert(out.key.ToString());
    } else {
      EXPECT_EQ(out.cache, CacheStatus::kMiss) << entry.name;
      EXPECT_TRUE(keys.insert(out.key.ToString()).second)
          << entry.name << " collided on key " << out.key.ToString();
    }
    ++engines;
  }
  EXPECT_EQ(miner_keys.size(), 1u);
  const size_t universes = engines - miner_kinds.size() + 1;
  EXPECT_EQ(keys.size(), universes);
  EXPECT_EQ(server.Stats().runs_started, universes);

  // Warm re-serve through a distinct engine hits that engine's entry.
  MineCall beam_call = BreastCall();
  beam_call.engine = core::EngineKind::kBeam;
  MineOutcome warm = server.Mine(beam_call);
  ASSERT_EQ(warm.verdict, Verdict::kOk);
  EXPECT_EQ(warm.cache, CacheStatus::kHit);
  EXPECT_EQ(server.Stats().runs_started, universes);
}

TEST(ServerTest, PreparedArtifactsReusedAcrossCacheMisses) {
  // The warm-path guarantee: a second mine that misses the ResultCache
  // (different config, same dataset) runs the engine again but rebuilds
  // zero artifacts — root bounds and resolved groups both come out of
  // the dataset's prepared bundle.
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Load("breast", "synth:breast").ok());

  MineOutcome cold = server.Mine(BreastCall());
  ASSERT_EQ(cold.verdict, Verdict::kOk) << cold.status.message();
  ASSERT_EQ(cold.cache, CacheStatus::kMiss);
  ServerStats s1 = server.Stats();
  EXPECT_GT(s1.registry.artifact_builds, 0u);
  EXPECT_GT(s1.registry.artifact_bytes, 0u);

  MineCall different = BreastCall();
  different.config.top_k = 77;  // new canonical key, same dataset
  MineOutcome warm = server.Mine(different);
  ASSERT_EQ(warm.verdict, Verdict::kOk) << warm.status.message();
  ASSERT_EQ(warm.cache, CacheStatus::kMiss);
  EXPECT_EQ(server.Stats().runs_started, 2u);

  ServerStats s2 = server.Stats();
  EXPECT_EQ(s2.registry.artifact_builds, s1.registry.artifact_builds)
      << "the cache-missed run rebuilt artifacts";
  EXPECT_GT(s2.registry.artifact_hits, s1.registry.artifact_hits);
}

TEST(ServerTest, ReplacingADatasetInvalidatesItsCachedResults) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Load("breast", "synth:breast").ok());
  ASSERT_EQ(server.Mine(BreastCall()).cache, CacheStatus::kMiss);
  ASSERT_EQ(server.Mine(BreastCall()).cache, CacheStatus::kHit);

  // Same name, new load: the generation bump re-keys every request and
  // the eviction listener reclaims the stale entries.
  ASSERT_TRUE(server.Load("breast", "synth:breast").ok());
  EXPECT_GE(server.Stats().cache.invalidations, 1u);
  EXPECT_EQ(server.Mine(BreastCall()).cache, CacheStatus::kMiss);
  EXPECT_EQ(server.Stats().runs_started, 2u);

  // Evicting the dataset entirely turns requests into NotFound errors.
  EXPECT_TRUE(server.Evict("breast"));
  MineOutcome gone = server.Mine(BreastCall());
  EXPECT_EQ(gone.verdict, Verdict::kError);
  EXPECT_EQ(gone.status.code(), util::StatusCode::kNotFound);
}

// "emit":"patterns" renders a result against the generation it was
// mined from, even when a load replaced the name before the reply was
// rendered (synth:breast is narrower than synth:ionosphere: rendering
// the old patterns against it would index past its schema).
TEST(ServerTest, PatternsRenderAgainstTheGenerationTheyWereMinedFrom) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Load("d", "synth:ionosphere").ok());
  MineCall call;
  call.dataset = "d";
  call.config = TestConfig();
  call.group_attr = "class";
  MineOutcome mined = server.Mine(call);
  ASSERT_EQ(mined.verdict, Verdict::kOk);
  ASSERT_FALSE(mined.result->contrasts.empty());
  MineOutcome hit;
  ASSERT_TRUE(server.TryCacheHit(call, &hit));
  const std::string expected = RenderPatternsBody(call, mined);

  ASSERT_TRUE(server.Load("d", "synth:breast").ok());
  for (const MineOutcome* outcome : {&mined, &hit}) {
    const std::string body = RenderPatternsBody(call, *outcome);
    EXPECT_EQ(body, expected);
    EXPECT_NE(body.find("\"attr\": \"pulse_"), std::string::npos);
    EXPECT_NE(body.find("\"g\": "), std::string::npos);
    EXPECT_EQ(body.find("nucleoli"), std::string::npos);
    EXPECT_EQ(body.find("Malignant"), std::string::npos);
    EXPECT_EQ(body.find("Benign"), std::string::npos);
  }
}

}  // namespace
}  // namespace sdadcs::serve
