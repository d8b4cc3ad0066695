#include "core/miner.h"

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "core/pruning.h"
#include "core/search.h"
#include "core/team_lease.h"
#include "core/topk.h"
#include "engine/session.h"

namespace sdadcs::core {

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
  // shared engine session; only the search strategy lives here.
  util::StatusOr<engine::MiningSession> session =
      engine::MiningSession::Begin(db, config_, request);
  if (!session.ok()) return session.status();
  // Registers the mine as running; declared before the search's state,
  // it ends after it.
  const TeamLease team(num_shards_);

  PruneTable prune_table;
  TopK topk(static_cast<size_t>(config_.top_k), config_.delta);
  MiningCounters counters;
  MiningContext ctx = session->MakeContext(&prune_table, &topk, &counters);
  // Only a multi-shard mine mines on the team.
  if (num_shards_ > 1) ctx.team = &team;

  LatticeSearch(ctx).Run(session->attributes());
  return session->Finalize(topk.Sorted(), counters, ctx.run.completion());
}

}  // namespace sdadcs::core
