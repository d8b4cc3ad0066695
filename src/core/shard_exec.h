#ifndef SDADCS_CORE_SHARD_EXEC_H_
#define SDADCS_CORE_SHARD_EXEC_H_

#include <cstddef>
#include <vector>

#include "core/match_kernel.h"
#include "core/optimistic.h"
#include "core/sdad.h"
#include "core/split_kernel.h"
#include "core/support.h"
#include "data/selection.h"
#include "data/shard.h"
#include "util/thread_pool.h"

namespace sdadcs::util {
class ThreadPool;
}

namespace sdadcs::core {

/// Shard fan-out state of one mining run: the static row partition, the
/// worker pool the counting scans fan across, and one SplitScratch per
/// shard (kernel scratch is single-owner — see split_kernel.h). Hung off
/// MiningContext by a multi-shard core::Miner; null there = serial
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
  util::ThreadPool* pool = nullptr;
  /// One scratch per shard, indexed by shard id.
  std::vector<SplitScratch>* scratches = nullptr;
  /// Selections smaller than this run the plain kernel inline: the
  /// per-task overhead of a fan-out dwarfs a small scan.
  size_t min_fanout_rows = 4096;
};

/// Mergeable per-group count accumulator (Accumulate / Merge /
/// Finalize): each shard contributes its local GroupCounts, the
/// coordinator folds them, and only the finalized merged counts feed a
/// statistic or pruning rule. Exact: counts are small-integer doubles,
/// so addition is associative.
class GroupCountsAccumulator {
 public:
  explicit GroupCountsAccumulator(size_t num_groups) {
    merged_.counts.assign(num_groups, 0.0);
  }

  void Accumulate(const GroupCounts& shard);
  void Merge(const GroupCountsAccumulator& other) {
    Accumulate(other.merged_);
  }
  GroupCounts Finalize() && { return std::move(merged_); }

 private:
  GroupCounts merged_;
};

/// Mergeable row-set accumulator. Shards MUST be accumulated in plan
/// order: ranges are ascending and disjoint, so plain concatenation
/// preserves the Selection sortedness invariant with no sort.
class SelectionAccumulator {
 public:
  void Accumulate(const data::Selection& shard);
  void Merge(SelectionAccumulator&& other);
  data::Selection Finalize() &&;

 private:
  std::vector<uint32_t> rows_;
};

/// Mergeable 2x2 contingency accumulator for the productivity
/// dependence scan.
class Contingency2x2Accumulator {
 public:
  void Accumulate(const Contingency2x2& shard);
  void Merge(const Contingency2x2Accumulator& other) {
    Accumulate(other.merged_);
  }
  Contingency2x2 Finalize() && { return merged_; }

 private:
  Contingency2x2 merged_;
};

/// Mergeable split-result accumulator. Every shard's SplitAndCount over
/// the same (bounds, cuts) produces the same cell lattice in the same
/// mask order, so cells merge positionally: rows concatenate (plan
/// order — see SelectionAccumulator), counts add.
class SplitAccumulator {
 public:
  void Accumulate(SplitResult&& shard);
  SplitResult Finalize() &&;
  bool empty() const { return cells_.empty(); }

 private:
  std::vector<Space> cells_;           // bounds from the first shard
  std::vector<SelectionAccumulator> rows_;
  std::vector<GroupCounts> counts_;
};

/// Mergeable builder of the optimistic-bound inputs (Eqs. 6-11): the
/// per-group counts and space total accumulate per shard; the scalar
/// fields (|DB|, level, |ca|, group sizes) are run-level constants set
/// at Finalize. The serial path funnels through the same object so both
/// engines feed OptimisticMeasure bit-identical inputs.
class OptimisticInputAccumulator {
 public:
  explicit OptimisticInputAccumulator(size_t num_groups)
      : counts_(num_groups) {}

  void Accumulate(const GroupCounts& shard) { counts_.Accumulate(shard); }
  void Merge(OptimisticInputAccumulator&& other) {
    counts_.Merge(other.counts_);
  }
  OptimisticInput Finalize(double db_size, int level, int num_continuous,
                           const std::vector<double>& group_sizes) &&;

 private:
  GroupCountsAccumulator counts_;
};

/// Sharded counting wrappers. Each runs the plain kernel inline when
/// the context has no shard plan (or the selection is below the fan-out
/// floor), and otherwise fans one task per shard across the pool,
/// merges with the accumulators above, and flushes a RunState
/// checkpoint at the merge barrier (CheckNow) so cancel / deadline /
/// budget stops are observed between fan-outs and the coordinator
/// drains its partial top-k cleanly.

/// CountGroups with shard fan-out.
GroupCounts CountGroupsSharded(MiningContext& ctx,
                               const data::Selection& sel);

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

/// CountPartsInGroupKernel with shard fan-out.
Contingency2x2 CountPartsInGroupSharded(MiningContext& ctx, const Itemset& a,
                                        const Itemset& b, int group,
                                        const data::Selection& sel);

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_SHARD_EXEC_H_
