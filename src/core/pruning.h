#ifndef SDADCS_CORE_PRUNING_H_
#define SDADCS_CORE_PRUNING_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/itemset.h"
#include "data/group_info.h"

namespace sdadcs::core {

/// The lookup table of Algorithm 1 (Line 7). Entries are itemsets whose
/// entire region was ruled out; a candidate is prunable when it
/// *specializes* a stored entry — equal categorical items and interval
/// containment. No entry records which rule put it there, because every
/// rule is monotone under specialization: support below δ in every group
/// and an expected contingency count below 5 only shrink in a sub-region;
/// a region whose support difference is statistically identical to a
/// subset's (Eqs. 14-16) makes every extension redundant too; a pure
/// region (PR = 1) is reported, but no extension can improve on purity
/// (the toddler/adult height example of Section 4.3); and under STUCCO's
/// optimistic chi-square bound no specialization can be significant, so
/// only the already-evaluated region's extensions are blocked.
/// MiningCounters counts each rule's hits.
///
/// Entries are bucketed by a hash of what containment must match
/// exactly: each item's attribute, kind and categorical code. A lookup
/// hashes the items each of the candidate's 2^n - 1 subset masks selects,
/// without building the subset, and tests the candidate against every
/// entry of each bucket found. A hash collision costs one more
/// containment test, never a different answer.
class PruneTable {
 public:
  PruneTable() = default;

  /// Records that `itemset`'s whole region is pruned. `itemset` must not
  /// be empty.
  void Insert(Itemset itemset);

  /// True if `candidate` specializes any stored entry: one bucket probe
  /// per non-empty subset of its items, 31 at the paper's depth 5.
  bool CanPrune(const Itemset& candidate) const;

  size_t size() const { return num_entries_; }

 private:
  std::unordered_map<uint64_t, std::vector<Itemset>> buckets_;
  size_t num_entries_ = 0;
};

/// Minimum deviation size rule: true if no group reaches support δ.
bool BelowMinimumDeviation(const std::vector<double>& supports,
                           double delta);

/// Expected-count rule: true if the presence/absence table of the counts
/// has an expected cell below 5.
bool LowExpectedCount(const std::vector<double>& counts,
                      const std::vector<double>& group_sizes);

/// Central-limit redundancy test of Eqs. 14-16: is `diff_curr`
/// statistically indistinguishable from `diff_subset`, given the
/// subset's per-group supports and the group sizes? `alpha` is converted
/// to the two-sided normal critical value (see DESIGN.md).
bool StatisticallySameDifference(double diff_curr, double diff_subset,
                                 const std::vector<double>& subset_supports,
                                 const std::vector<double>& group_sizes,
                                 double alpha);

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_PRUNING_H_
