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

/// Shard fan-out state of one mining run: the static row partition, the
/// fork-join team the counting scans fan across, and one SplitScratch
/// per shard (kernel scratch is single-owner — see split_kernel.h). Hung
/// off MiningContext by a multi-shard core::Miner; null there = serial
/// counting.
///
/// The contract that keeps results byte-identical to serial for every
/// shard count: shards are contiguous ascending row ranges, every kernel
/// emits rows in selection order, and counts are exact small-integer
/// doubles — so concatenating per-shard row outputs in plan order
/// reproduces the global selection order, and summing per-shard counts
/// is exact. Only counting scans fan out; every *decision* (pruning,
/// recursion, ordering) stays on the coordinator and only ever reads
/// merged statistics.
struct ShardExec {
  const data::ShardPlan* plan = nullptr;
  /// The team the shards run on, the mining thread included; any member
  /// may run any shard. Null for a mine that did not start alone
  /// (RunningMine): every scan then runs inline, still with a checkpoint
  /// at each barrier.
  util::ForkJoinTeam* team = nullptr;
  /// One scratch per shard, indexed by shard id.
  std::vector<SplitScratch>* scratches = nullptr;
  /// Selections smaller than this run the plain kernel inline: the
  /// per-task overhead of a fan-out dwarfs a small scan.
  size_t min_fanout_rows = 4096;
};

/// Registers one core::Miner mine as running in this process, for the
/// object's lifetime. Team members spin between fan-outs, so they need
/// cores of their own: a multi-shard mine builds its team only when it
/// starts as the process's only running mine (so at most one team
/// exists at a time), and it fans out only while no other mine runs.
/// Otherwise its scans run inline, which the contract above makes
/// byte-identical.
class RunningMine {
 public:
  RunningMine();
  ~RunningMine();

  RunningMine(const RunningMine&) = delete;
  RunningMine& operator=(const RunningMine&) = delete;

  /// True when no other mine was running as this one started.
  bool started_alone() const { return started_alone_; }

 private:
  bool started_alone_;
};

/// Counting scans with shard fan-out. Each calls its kernel directly on
/// the calling thread when the context has no multi-shard plan or the
/// selection is below the fan-out floor. Otherwise it runs one task per
/// shard on the team and merges the per-shard results in plan order
/// (counts sum, rows concatenate, split cells merge by position), then
/// flushes a RunState checkpoint at the merge barrier (CheckNow) so
/// cancel / deadline / budget stops are observed between fan-outs and
/// the coordinator drains its partial top-k cleanly. Without a team, or
/// while another mine runs, the scan runs inline over the whole
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
