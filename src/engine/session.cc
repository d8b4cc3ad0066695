#include "engine/session.h"

#include <cmath>
#include <memory>
#include <utility>

#include "core/productivity.h"
#include "core/run_state.h"
#include "core/space.h"
#include "core/support.h"
#include "data/simd_select.h"

namespace sdadcs::engine {

util::StatusOr<MiningSession> MiningSession::Begin(
    const data::Dataset& db, const core::MinerConfig& config,
    const core::MineRequest& request) {
  SDADCS_RETURN_IF_ERROR(config.Validate());

  MiningSession session;
  session.db_ = &db;
  session.config_ = &config;
  session.control_ = request.run_control;

  if (request.groups != nullptr) {
    session.groups_ = request.groups;
  } else if (request.prepared != nullptr) {
    // Warm path: the bundle's keyed group artifact carries the resolved
    // groups, group sizes, default universe and root bounds — built on
    // first touch, reused ever after.
    util::StatusOr<std::shared_ptr<const data::PreparedGroups>> pg =
        request.prepared->Groups(request.group_attr,
                                 request.group_values);
    if (!pg.ok()) {
      return core::GroupResolutionError(db, request, pg.status());
    }
    session.prepared_groups_ = std::move(*pg);
    session.groups_ = &session.prepared_groups_->groups;
  } else {
    util::StatusOr<data::GroupInfo> gi =
        core::ResolveRequestGroups(db, request);
    if (!gi.ok()) return gi.status();
    session.owned_groups_ =
        std::make_unique<data::GroupInfo>(std::move(*gi));
    session.groups_ = session.owned_groups_.get();
  }
  const data::GroupInfo& gi = *session.groups_;

  // Resolve the attribute universe: the configured names, or every
  // attribute except the group attribute (the prepared artifact holds
  // that default universe ready-made).
  if (config.attributes.empty()) {
    if (session.prepared_groups_ != nullptr) {
      session.attributes_ = session.prepared_groups_->attributes;
    } else {
      for (size_t a = 0; a < db.num_attributes(); ++a) {
        if (static_cast<int>(a) != gi.group_attr()) {
          session.attributes_.push_back(static_cast<int>(a));
        }
      }
    }
  } else {
    for (const std::string& name : config.attributes) {
      util::StatusOr<int> idx = db.schema().IndexOf(name);
      if (!idx.ok()) {
        return util::Status::InvalidArgument("attributes: " +
                                             idx.status().message());
      }
      if (*idx == gi.group_attr()) {
        return util::Status::InvalidArgument(
            "attributes: '" + name + "' is the group attribute");
      }
      session.attributes_.push_back(*idx);
    }
  }
  if (session.attributes_.empty()) {
    return util::Status::InvalidArgument(
        "attributes: no attributes to mine");
  }

  if (session.prepared_groups_ != nullptr) {
    // The artifact's bounds cover every continuous attribute of the
    // default universe — a superset of any configured subset — so the
    // copies below never trigger a row scan.
    session.group_sizes_ = session.prepared_groups_->group_sizes;
    session.root_bounds_ = session.prepared_groups_->root_bounds;
  } else {
    session.group_sizes_ = core::GroupSizes(gi);
    for (int a : session.attributes_) {
      if (db.is_continuous(a)) {
        session.root_bounds_[a] =
            data::ComputeRootBounds(db, a, gi.base_selection());
      }
    }
  }
  // Every root row lies inside its root bounds, so the root split reads
  // no value (core::SplitRoot). The CSV reader, DatasetBuilder::Build
  // and OpenSpill refuse infinite values; a spill file whose column
  // stats hide one gives an infinite bound here.
  for (int a : session.attributes_) {
    auto it = session.root_bounds_.find(a);
    if (it != session.root_bounds_.end() &&
        (std::isinf(it->second.lo) || std::isinf(it->second.hi))) {
      return util::Status::InvalidArgument(
          "attribute '" + db.schema().attribute(static_cast<size_t>(a)).name +
          "' holds an infinite value");
    }
  }
  return session;
}

core::MiningContext MiningSession::MakeContext(
    core::PruneTable* prune_table, core::TopK* topk,
    core::MiningCounters* counters) const {
  core::MiningContext ctx;
  ctx.db = db_;
  ctx.gi = groups_;
  ctx.cfg = config_;
  ctx.prune_table = prune_table;
  ctx.topk = topk;
  ctx.counters = counters;
  ctx.group_sizes = group_sizes_;
  ctx.root_bounds = root_bounds_;
  ctx.simd = data::SimdByDefault();
  ctx.run = core::RunState(control_);
  return ctx;
}

core::MiningResult MiningSession::Finalize(
    std::vector<core::ContrastPattern> contrasts,
    core::MiningCounters counters, core::Completion completion) const {
  core::MiningResult result;
  core::SortByMeasureDesc(&contrasts);
  result.contrasts = std::move(contrasts);
  // The independently-productive post-filter only removes patterns, so
  // it is safe (and most useful) on a partial best-so-far list too. The
  // filter never touches the context's prune table or top-k list, so
  // the scratch context leaves them unset.
  if (config_->meaningful_pruning &&
      config_->independently_productive_filter) {
    core::MiningContext scratch =
        MakeContext(/*prune_table=*/nullptr, /*topk=*/nullptr, &counters);
    result.contrasts = core::FilterIndependentlyProductive(
        scratch, std::move(result.contrasts));
  }
  result.counters = counters;
  result.completion = completion;
  result.elapsed_seconds = timer_.Seconds();
  for (int g = 0; g < groups_->num_groups(); ++g) {
    result.group_names.push_back(groups_->group_name(g));
  }
  return result;
}

}  // namespace sdadcs::engine
