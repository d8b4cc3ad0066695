#ifndef SDADCS_CORE_SHARD_EXEC_H_
#define SDADCS_CORE_SHARD_EXEC_H_

#include <cstddef>
#include <vector>

#include "core/match_kernel.h"
#include "core/sdad.h"
#include "core/split_kernel.h"
#include "core/support.h"
#include "data/selection.h"
#include "data/shard.h"

namespace sdadcs::util {
class ForkJoinTeam;
}

namespace sdadcs::core {

/// Shard fan-out state of one core::Miner mine, which it registers as
/// running in this process for its lifetime: the static row partition,
/// one SplitScratch per shard (kernel scratch is single-owner — see
/// split_kernel.h) and the process's team. Hung off MiningContext by a
/// multi-shard mine; null there = serial counting.
///
/// The contract that keeps results byte-identical to serial for every
/// shard count: shards are contiguous ascending row ranges, every kernel
/// emits rows in selection order, and counts are exact small-integer
/// doubles — so concatenating per-shard row outputs in plan order
/// reproduces the global selection order, and summing per-shard counts
/// is exact. Only counting scans fan out; every *decision* (pruning,
/// recursion, ordering) stays on the coordinator and only ever reads
/// merged statistics.
///
/// The process has one team, alive while any mine runs: a multi-shard
/// mine builds it (min(shards, cores) wide) when none exists. It serves
/// one mine at a time until that mine ends, so a mine started beside
/// another takes it over when the other ends. Members spin between
/// tasks and need cores of their own: while other mines run, the team
/// lends one member fewer per other mine and fans out no row scans. A
/// mine without it mines inline, byte-identically.
class ShardExec {
 public:
  ShardExec(size_t rows, size_t shards);
  ~ShardExec();

  ShardExec(const ShardExec&) = delete;
  ShardExec& operator=(const ShardExec&) = delete;

  const data::ShardPlan& plan() const { return plan_; }
  SplitScratch* scratch(size_t shard) const { return &scratches_[shard]; }

  /// min(shards, team width), the mining thread included; 0 = no team.
  size_t team_width() const { return team_width_; }

  /// The team this mine may use now, and in `*width` how many of its
  /// members (at least 2): null when it serves another mine, or while
  /// other mines leave it under two cores.
  util::ForkJoinTeam* AvailableTeam(size_t* width) const;

  /// Selections smaller than this run the plain kernel inline: the
  /// per-task overhead of a fan-out dwarfs a small scan.
  static constexpr size_t kMinFanoutRows = 4096;

 private:
  data::ShardPlan plan_;
  mutable std::vector<SplitScratch> scratches_;
  util::ForkJoinTeam* team_ = nullptr;
  size_t team_width_ = 0;
};

/// Counting scans with shard fan-out. Each calls its kernel directly on
/// the calling thread when the context has no multi-shard plan or the
/// selection is below the fan-out floor. Otherwise it runs one task per
/// shard on the team and merges the per-shard results in plan order
/// (counts sum, rows concatenate, split cells merge by position), then
/// flushes a RunState checkpoint at the merge barrier (CheckNow) so
/// cancel / deadline / budget stops are observed between fan-outs and
/// the coordinator drains its partial top-k cleanly. Without the team,
/// or while another mine runs, the scan runs inline over the whole
/// selection and the same checkpoint follows it. Every kernel runs the
/// path MiningContext::simd names.

/// CountMatchesKernel with shard fan-out.
GroupCounts CountMatchesSharded(MiningContext& ctx, const Itemset& itemset,
                                const data::Selection& sel);

/// FilterCountItemKernel with shard fan-out.
data::Selection FilterCountItemSharded(MiningContext& ctx, const Item& item,
                                       const data::Selection& sel,
                                       GroupCounts* gc);

/// FilterAllPresentKernel with shard fan-out.
data::Selection FilterAllPresentSharded(MiningContext& ctx,
                                        const std::vector<int>& cont_attrs,
                                        const data::Selection& sel,
                                        GroupCounts* gc);

/// SplitAndCount with shard fan-out (cuts computed by the coordinator —
/// the median is a global order statistic and must never be taken
/// per-shard).
SplitResult SplitAndCountSharded(MiningContext& ctx, const Space& space,
                                 const std::vector<double>& cuts);

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_SHARD_EXEC_H_
