#ifndef SDADCS_CORE_MINER_H_
#define SDADCS_CORE_MINER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/contrast.h"
#include "core/run_state.h"
#include "data/dataset.h"
#include "data/group_info.h"
#include "util/run_control.h"
#include "util/status.h"

namespace sdadcs::data {
class PreparedDataset;
}  // namespace sdadcs::data

namespace sdadcs::core {

/// One mining request: which groups to contrast and how the run is
/// controlled. The single argument of every engine's Mine(db, request)
/// entry point (Miner at any shard count, WindowMiner passes, beam).
///
///   MineRequest req;
///   req.group_attr = "class";
///   req.group_values = {"Doctorate", "Bachelors"};
///   req.run_control = util::RunControl::WithDeadline(250ms);
///   auto result = miner.Mine(db, req);
struct MineRequest {
  /// Name of the group attribute.
  std::string group_attr;
  /// Group values to contrast; empty = every value of `group_attr`.
  std::vector<std::string> group_values;
  /// Pre-built groups (must refer to the mined dataset). When set,
  /// `group_attr` / `group_values` are ignored.
  const data::GroupInfo* groups = nullptr;
  /// Optional prepared-artifact bundle of the mined dataset (must wrap
  /// the very same data::Dataset). When set, the engine session pulls
  /// resolved groups, the attribute universe and root bounds from the
  /// bundle instead of recomputing them. Null = derive per call.
  const data::PreparedDataset* prepared = nullptr;
  /// Deadline / cancellation / budget / progress handle. Default:
  /// unlimited.
  util::RunControl run_control;
};

/// Builds the GroupInfo a request asks for (ignoring `request.groups`
/// and `request.prepared`, which the caller can use directly). Shared
/// by every engine; failures come back through GroupResolutionError.
util::StatusOr<data::GroupInfo> ResolveRequestGroups(
    const data::Dataset& db, const MineRequest& request);

/// Maps a failed group resolution onto a field-named InvalidArgument:
/// the offending MineRequest field ("group_attr" or "group_values")
/// prefixes the data-layer message. One place defines the mapping so
/// the per-call path and the prepared-artifact path answer identically.
util::Status GroupResolutionError(const data::Dataset& db,
                                  const MineRequest& request,
                                  const util::Status& status);

/// Output of one mining run.
struct MiningResult {
  /// Contrast patterns sorted by interest measure, descending.
  std::vector<ContrastPattern> contrasts;
  MiningCounters counters;
  double elapsed_seconds = 0.0;
  std::vector<std::string> group_names;
  /// Whether the run finished or drained early; on anything other than
  /// kComplete, `contrasts` is the valid, sorted best-so-far list and
  /// `counters.abandoned_candidates` records the skipped work.
  Completion completion = Completion::kComplete;

  /// Mean support difference of the strongest `k` patterns — the metric
  /// of Table 4. Averages over fewer patterns when the list is shorter;
  /// 0 when empty.
  double MeanSupportDifference(size_t k) const;
};

/// Public facade: configures and runs the full SDAD-CS contrast-set
/// miner (search tree + SDAD-CS discretization + meaningfulness
/// filters).
///
///   Miner miner(cfg);
///   MineRequest req;
///   req.group_attr = "class";
///   req.group_values = {"Doctorate", "Bachelors"};
///   auto result = miner.Mine(db, req);
///
/// With more than one shard the mine runs on a team of min(shards,
/// cores) threads, the calling thread included (DESIGN.md §12): every
/// level of the search with at least two combinations mines them on the
/// team at once and commits them in frontier order (LatticeSearch). The
/// result, every counter and every progress report are byte-identical
/// to the one-shard mine for every shard count, which is why the count
/// lives in EngineOptions, outside the request key. The process has one
/// team, which serves one mine at a time; a mine without it runs on the
/// calling thread alone until it can take it over (TeamLease,
/// core/team_lease.h).
class Miner {
 public:
  /// `shards` is the team width: 0 resolves to
  /// std::thread::hardware_concurrency() (at least 1), and num_shards()
  /// reports the resolved value. One shard mines on the calling thread
  /// alone.
  explicit Miner(MinerConfig config, size_t shards = 1);

  const MinerConfig& config() const { return config_; }
  size_t num_shards() const { return num_shards_; }

  /// Unified entry point: validates the config, resolves the groups and
  /// mines under the request's RunControl. An expired deadline, a
  /// Cancel() from another thread or an exhausted node budget drains
  /// the search cleanly and returns the best-so-far result with the
  /// matching MiningResult::completion — not an error.
  util::StatusOr<MiningResult> Mine(const data::Dataset& db,
                                    const MineRequest& request) const;

 private:
  MinerConfig config_;
  size_t num_shards_;
};

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_MINER_H_
