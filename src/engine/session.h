#ifndef SDADCS_ENGINE_SESSION_H_
#define SDADCS_ENGINE_SESSION_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/contrast.h"
#include "core/miner.h"
#include "core/pruning.h"
#include "core/sdad.h"
#include "core/topk.h"
#include "data/dataset.h"
#include "data/group_info.h"
#include "data/prepared.h"
#include "util/run_control.h"
#include "util/status.h"
#include "util/timer.h"

namespace sdadcs::engine {

/// The shared prologue and epilogue of every mining engine — the one
/// place the setup and finalize logic lives (the SDAD-CS lattice miner
/// at any shard count, beam subgroup discovery, pre-binned and window
/// engines all run between Begin() and Finalize()). Neither end mines
/// anything itself, so an engine's search runs exactly once per request.
///
/// Begin() validates the config, resolves the request's groups
/// (request.groups wins over group_attr/group_values), resolves the
/// attribute universe (config.attributes or every attribute except the
/// group attribute, rejecting the group attribute by name), computes
/// the per-attribute root bounds and group sizes, and starts the wall
/// timer the epilogue reads.
///
/// When the request carries a prepared-artifact bundle
/// (request.prepared), groups, universe, group sizes and root bounds
/// all come out of the bundle's keyed group artifact — no row scan, no
/// GroupInfo rebuild. The session keeps the artifact alive via
/// shared_ptr, so it survives even a concurrent registry eviction of
/// the dataset handle that produced it.
///
/// Finalize() sorts the patterns by measure (a deterministic total
/// order, idempotent on already-sorted input), applies the
/// independently-productive post-filter when the config asks for it
/// (the filter only removes patterns, so it is safe on a partial
/// best-so-far list too), and stamps counters, completion, group names
/// and elapsed time onto the MiningResult.
///
///   auto session = MiningSession::Begin(db, config, request);
///   if (!session.ok()) return session.status();
///   core::PruneTable prune_table;
///   core::TopK topk(config.top_k, config.delta);
///   core::MiningCounters counters;
///   core::MiningContext ctx =
///       session->MakeContext(&prune_table, &topk, &counters);
///   ... run the engine's search strategy against ctx ...
///   return session->Finalize(topk.Sorted(), counters,
///                            ctx.run.completion());
///
/// The session borrows `db`, `config` and (when set) `request.groups`;
/// all three must outlive it. A GroupInfo resolved from
/// group_attr/group_values is owned by the session.
class MiningSession {
 public:
  static util::StatusOr<MiningSession> Begin(
      const data::Dataset& db, const core::MinerConfig& config,
      const core::MineRequest& request);

  const data::Dataset& db() const { return *db_; }
  const core::MinerConfig& config() const { return *config_; }
  const data::GroupInfo& groups() const { return *groups_; }
  /// The mined attribute universe (indices; group attribute excluded).
  const std::vector<int>& attributes() const { return attributes_; }
  const std::vector<double>& group_sizes() const { return group_sizes_; }
  const std::unordered_map<int, core::RootBounds>& root_bounds() const {
    return root_bounds_;
  }
  /// The request's RunControl (copies share state with the caller's
  /// handle, so external Cancel() still reaches every context made
  /// here).
  const util::RunControl& control() const { return control_; }
  /// Seconds since Begin().
  double ElapsedSeconds() const { return timer_.Seconds(); }

  /// Wires a MiningContext over this session's shared read-only state
  /// with the given per-run mutable pieces, and sets its kernel choice
  /// (MiningContext::simd) from the host default. MiningContext is not
  /// thread-safe: a team member mines on a copy of the mining thread's
  /// context, whose RunState observes the same RunControl.
  core::MiningContext MakeContext(core::PruneTable* prune_table,
                                  core::TopK* topk,
                                  core::MiningCounters* counters) const;

  /// Shared epilogue; see the class comment. `counters` is taken by
  /// value because the independently-productive filter adds to it.
  core::MiningResult Finalize(std::vector<core::ContrastPattern> contrasts,
                              core::MiningCounters counters,
                              core::Completion completion) const;

 private:
  MiningSession() = default;

  const data::Dataset* db_ = nullptr;
  const core::MinerConfig* config_ = nullptr;
  /// Set when the groups came from the prepared bundle; keeps the
  /// artifact alive for the session's lifetime.
  std::shared_ptr<const data::PreparedGroups> prepared_groups_;
  /// Set when the session resolved the groups itself; `groups_` then
  /// points into it.
  std::unique_ptr<data::GroupInfo> owned_groups_;
  const data::GroupInfo* groups_ = nullptr;
  std::vector<int> attributes_;
  std::vector<double> group_sizes_;
  std::unordered_map<int, core::RootBounds> root_bounds_;
  util::RunControl control_;
  util::WallTimer timer_;
};

}  // namespace sdadcs::engine

#endif  // SDADCS_ENGINE_SESSION_H_
