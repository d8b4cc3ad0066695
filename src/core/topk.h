#ifndef SDADCS_CORE_TOPK_H_
#define SDADCS_CORE_TOPK_H_

#include <unordered_set>
#include <vector>

#include "core/contrast.h"

namespace sdadcs::core {

/// Bounded best-k list of contrast patterns ordered by interest measure.
/// Provides the dynamic "min support" threshold of Algorithm 1: the
/// optimistic estimate of a child space must beat threshold() for the
/// space to be explored. While the list is not yet full the threshold
/// stays at the floor (δ), exactly as the paper specifies.
class TopK {
 public:
  /// `k` = capacity, `floor` = δ, the threshold used until k patterns
  /// have been collected.
  TopK(size_t k, double floor) : k_(k), floor_(floor) {}

  /// Inserts `pattern` unless an identical itemset is already present.
  /// Evicts the weakest pattern when over capacity. Returns true if the
  /// pattern entered the list.
  bool Insert(const ContrastPattern& pattern);

  /// Current pruning threshold: the k-th best measure once full,
  /// otherwise the floor.
  double threshold() const;

  /// Monotone counter bumped on every successful Insert; the anytime
  /// progress path uses it to detect "the best-so-far set changed since
  /// the last improved report" without comparing pattern lists.
  uint64_t version() const { return version_; }

  /// Best measure collected so far (0 while empty). Monotone: eviction
  /// only ever removes the weakest pattern.
  double best_measure() const { return best_measure_; }

  size_t size() const { return patterns_.size(); }
  bool full() const { return patterns_.size() >= k_; }

  /// Patterns sorted by measure descending.
  std::vector<ContrastPattern> Sorted() const;

 private:
  size_t k_;
  double floor_;
  double best_measure_ = 0.0;
  uint64_t version_ = 0;
  std::vector<ContrastPattern> patterns_;  // kept as a min-heap on measure
  std::unordered_set<Itemset> keys_;
};

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_TOPK_H_
