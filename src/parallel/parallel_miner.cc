#include "parallel/parallel_miner.h"

#include <algorithm>
#include <thread>

#include "core/anytime.h"
#include "core/run_state.h"
#include "core/search.h"
#include "engine/session.h"
#include "util/thread_pool.h"

namespace sdadcs::parallel {

namespace {

using core::ContrastPattern;
using core::LatticeSearch;
using core::MiningContext;
using core::MiningCounters;
using core::PruneTable;
using core::RunState;
using core::TopK;

// A per-level progress report from the coordinator thread. Anytime
// previews come from the pooled global top-k, so the parallel engine
// streams best-so-far results at level granularity.
void ReportLevel(const util::RunControl& control, const TopK& global_topk,
                 int level, uint64_t done, uint64_t total,
                 uint64_t* last_improved_version) {
  if (!control.has_progress_callback()) return;
  util::RunProgress progress;
  progress.level = level;
  progress.candidates_done = done;
  progress.candidates_total = total;
  progress.topk_threshold = global_topk.threshold();
  core::FillProgressFromTopK(control, global_topk, last_improved_version,
                             &progress);
  control.ReportProgress(progress);
}

// Per-worker state for one level. The local prune table holds only this
// worker's new entries; pooled knowledge is consulted via the parent
// pointer (read-only during the level).
struct WorkerState {
  PruneTable prune_table;
  TopK topk;
  MiningCounters counters;
  std::vector<std::vector<int>> alive;
  std::vector<ContrastPattern> patterns;

  WorkerState(const PruneTable* pooled, size_t k, double floor)
      : topk(k, floor) {
    prune_table.set_parent(pooled);
  }
};

}  // namespace

ParallelMiner::ParallelMiner(core::MinerConfig config, size_t num_threads)
    : config_(std::move(config)), num_threads_(num_threads) {
  if (num_threads_ == 0) {
    num_threads_ = std::max(1u, std::thread::hardware_concurrency());
  }
}

util::StatusOr<core::MiningResult> ParallelMiner::Mine(
    const data::Dataset& db, const core::MineRequest& request) const {
  // Shared prologue/epilogue; only the level-parallel scheduling below
  // is this engine's own.
  util::StatusOr<engine::MiningSession> session =
      engine::MiningSession::Begin(db, config_, request);
  if (!session.ok()) return session.status();
  const std::vector<int>& attrs = session->attributes();
  const util::RunControl& control = session->control();

  util::ThreadPool pool(num_threads_);
  const int max_depth =
      std::min<int>(config_.max_depth, static_cast<int>(attrs.size()));

  PruneTable pooled_table;
  TopK global_topk(static_cast<size_t>(config_.top_k), config_.delta);
  MiningCounters global_counters;

  // The coordinator's view of the shared control: workers observe the
  // same cancel flag / deadline / budget through their own RunStates,
  // so checking here between levels is enough to classify how the run
  // ended.
  RunState coord_run(control);
  uint64_t last_improved_version = 0;
  std::vector<std::vector<int>> alive_prev;

  for (int level = 1; level <= max_depth; ++level) {
    if (coord_run.CheckNow()) break;
    // cheap_first is off: the strided workers interleave candidates, so
    // a global cost ordering would not buy an earlier threshold.
    std::vector<std::vector<int>> candidates = core::BuildLevelFrontier(
        db, config_, level, attrs, alive_prev, /*cheap_first=*/false,
        &global_counters);
    if (candidates.empty()) break;
    ReportLevel(control, global_topk, level, 0, candidates.size(),
                &last_improved_version);

    // One worker state per thread; each worker handles a strided slice
    // of the level's combinations with its own prune table and top-k
    // floored at the pooled threshold.
    const size_t num_workers =
        std::min(num_threads_, std::max<size_t>(1, candidates.size()));
    std::vector<WorkerState> workers;
    workers.reserve(num_workers);
    double floor = std::max(config_.delta, global_topk.threshold());
    for (size_t w = 0; w < num_workers; ++w) {
      workers.emplace_back(&pooled_table,
                           static_cast<size_t>(config_.top_k), floor);
    }

    for (size_t w = 0; w < num_workers; ++w) {
      pool.Submit([&, w] {
        WorkerState& state = workers[w];
        // Every worker's context wraps the same session (and therefore
        // the same RunControl), so a stop observed by one thread is
        // observed by all at their next checkpoint (between
        // combinations and inside MineCombo).
        MiningContext ctx = session->MakeContext(
            &state.prune_table, &state.topk, &state.counters);
        LatticeSearch search(ctx);
        for (size_t i = w; i < candidates.size(); i += num_workers) {
          if (ctx.run.stopped()) {
            state.counters.abandoned_candidates +=
                (candidates.size() - i + num_workers - 1) / num_workers;
            break;
          }
          if (search.MineCombo(candidates[i])) {
            state.alive.push_back(candidates[i]);
          }
        }
        state.patterns = state.topk.Sorted();
      });
    }
    pool.Wait();

    // Pool the level's results.
    std::vector<std::vector<int>> alive_cur;
    for (WorkerState& state : workers) {
      for (const ContrastPattern& p : state.patterns) {
        global_topk.Insert(p);
      }
      global_counters.Add(state.counters);
      pooled_table.MergeFrom(state.prune_table);
      for (std::vector<int>& combo : state.alive) {
        alive_cur.push_back(std::move(combo));
      }
    }
    ReportLevel(control, global_topk, level, candidates.size(),
                candidates.size(), &last_improved_version);
    std::sort(alive_cur.begin(), alive_cur.end());
    alive_prev = std::move(alive_cur);
    if (alive_prev.empty()) break;
  }
  // Classify a stop the workers hit during the final level.
  coord_run.CheckNow();

  return session->Finalize(global_topk.Sorted(), global_counters,
                           coord_run.completion());
}

}  // namespace sdadcs::parallel
