#include "core/pruning.h"

#include <cmath>
#include <utility>

#include "stats/contingency.h"
#include "stats/normal.h"
#include "util/logging.h"

namespace sdadcs::core {

namespace {

// Folds the part of `it` that containment must match exactly into `h`.
uint64_t BucketMix(uint64_t h, const Item& it) {
  h = HashMix(h, static_cast<uint64_t>(it.attr));
  h = HashMix(h, static_cast<uint64_t>(it.kind));
  if (it.kind == Item::Kind::kCategorical) {
    h = HashMix(h, static_cast<uint64_t>(it.code));
  }
  return h;
}

}  // namespace

void PruneTable::Insert(Itemset itemset) {
  // An empty entry would prune every candidate, but no probe reaches it.
  SDADCS_CHECK(!itemset.empty());
  uint64_t h = 0;
  for (const Item& it : itemset.items()) h = BucketMix(h, it);
  buckets_[h].push_back(std::move(itemset));
  ++num_entries_;
}

bool PruneTable::CanPrune(const Itemset& candidate) const {
  if (buckets_.empty()) return false;
  const size_t n = candidate.size();
  SDADCS_CHECK(n < 20);
  // An entry the candidate specializes constrains a subset of its
  // attributes with equal kinds and codes, so it sits in the bucket of
  // that subset's mask.
  const uint32_t full = (1u << n) - 1;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    uint64_t h = 0;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) h = BucketMix(h, candidate.item(i));
    }
    auto it = buckets_.find(h);
    if (it == buckets_.end()) continue;
    for (const Itemset& entry : it->second) {
      if (candidate.Specializes(entry)) return true;
    }
  }
  return false;
}

bool BelowMinimumDeviation(const std::vector<double>& supports,
                           double delta) {
  for (double s : supports) {
    if (s >= delta) return false;
  }
  return true;
}

bool LowExpectedCount(const std::vector<double>& counts,
                      const std::vector<double>& group_sizes) {
  stats::ContingencyTable t = stats::MakePresenceTable(counts, group_sizes);
  return t.MinExpected() < 5.0;
}

bool StatisticallySameDifference(double diff_curr, double diff_subset,
                                 const std::vector<double>& subset_supports,
                                 const std::vector<double>& group_sizes,
                                 double alpha) {
  SDADCS_CHECK(subset_supports.size() == group_sizes.size());
  SDADCS_CHECK(subset_supports.size() >= 2);
  // Eqs. 14-15 use the two groups being contrasted; with k groups we take
  // the extreme pair, matching the generalized support difference.
  size_t hi = 0;
  size_t lo = 0;
  for (size_t g = 1; g < subset_supports.size(); ++g) {
    if (subset_supports[g] > subset_supports[hi]) hi = g;
    if (subset_supports[g] < subset_supports[lo]) lo = g;
  }
  double sx = subset_supports[hi];
  double sy = subset_supports[lo];
  double a = sx * (1.0 - sx) / group_sizes[hi];
  double b = sy * (1.0 - sy) / group_sizes[lo];
  double half_width = stats::TwoSidedCriticalZ(alpha) * std::sqrt(a + b);
  return diff_curr >= diff_subset - half_width &&
         diff_curr <= diff_subset + half_width;
}

}  // namespace sdadcs::core
