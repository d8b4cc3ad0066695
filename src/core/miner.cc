#include "core/miner.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/pruning.h"
#include "core/search.h"
#include "core/shard_exec.h"
#include "core/split_kernel.h"
#include "core/topk.h"
#include "data/shard.h"
#include "engine/session.h"
#include "util/fork_join_team.h"

namespace sdadcs::core {

namespace {

// The row-shard fan-out of one multi-shard mine: the plan, a team no
// wider than the plan or the host (for a mine that started alone, see
// RunningMine), and one split scratch per shard (the split kernel's
// scratch is single-owner, and shards run concurrently).
struct ShardFanOut {
  ShardFanOut(size_t rows, size_t shards, bool with_team)
      : plan(rows, shards), scratches(plan.num_shards()) {
    if (with_team) {
      team.emplace(std::min<size_t>(
          plan.num_shards(),
          std::max(1u, std::thread::hardware_concurrency())));
    }
    exec.plan = &plan;
    exec.team = team ? &*team : nullptr;
    exec.scratches = &scratches;
  }

  data::ShardPlan plan;
  std::optional<util::ForkJoinTeam> team;
  std::vector<SplitScratch> scratches;
  ShardExec exec;
};

}  // namespace

double MiningResult::MeanSupportDifference(size_t k) const {
  if (contrasts.empty()) return 0.0;
  size_t n = std::min(k, contrasts.size());
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += contrasts[i].diff;
  return sum / static_cast<double>(n);
}

util::Status GroupResolutionError(const data::Dataset& db,
                                  const MineRequest& request,
                                  const util::Status& status) {
  // Anything the group spec can get wrong is a caller mistake: surface
  // it uniformly as InvalidArgument naming the offending request field.
  // The attribute lookup is re-run (cheap) to classify failures coming
  // from the prepared-artifact path, which hands back one flat status.
  bool attr_failed = !db.schema().IndexOf(request.group_attr).ok();
  const char* field = attr_failed || request.group_values.empty()
                          ? "group_attr: "
                          : "group_values: ";
  return util::Status::InvalidArgument(field + status.message());
}

util::StatusOr<data::GroupInfo> ResolveRequestGroups(
    const data::Dataset& db, const MineRequest& request) {
  util::StatusOr<int> attr = db.schema().IndexOf(request.group_attr);
  if (!attr.ok()) return GroupResolutionError(db, request, attr.status());
  util::StatusOr<data::GroupInfo> gi =
      request.group_values.empty()
          ? data::GroupInfo::Create(db, *attr)
          : data::GroupInfo::CreateForValues(db, *attr,
                                             request.group_values);
  if (!gi.ok()) return GroupResolutionError(db, request, gi.status());
  return gi;
}

Miner::Miner(MinerConfig config, size_t shards)
    : config_(std::move(config)), num_shards_(shards) {
  if (num_shards_ == 0) {
    num_shards_ = std::max(1u, std::thread::hardware_concurrency());
  }
}

util::StatusOr<MiningResult> Miner::Mine(const data::Dataset& db,
                                         const MineRequest& request) const {
  // Prologue (validation, group/attribute resolution, root bounds) and
  // epilogue (sort, independently-productive filter, completion) are the
  // shared engine session; only the search strategy lives here. Declared
  // first, `running` ends last: the team has joined before it goes.
  const RunningMine running;
  util::StatusOr<engine::MiningSession> session =
      engine::MiningSession::Begin(db, config_, request);
  if (!session.ok()) return session.status();

  PruneTable prune_table;
  TopK topk(static_cast<size_t>(config_.top_k), config_.delta);
  MiningCounters counters;
  MiningContext ctx = session->MakeContext(&prune_table, &topk, &counters);

  // The fan-out exists only for a multi-shard mine; the search itself
  // is oblivious to how its counting scans execute.
  std::optional<ShardFanOut> fan_out;
  if (num_shards_ > 1) {
    fan_out.emplace(db.num_rows(), num_shards_, running.started_alone());
    ctx.shards = &fan_out->exec;
  }

  LatticeSearch(ctx).Run(session->attributes());
  return session->Finalize(topk.Sorted(), counters, ctx.run.completion());
}

}  // namespace sdadcs::core
