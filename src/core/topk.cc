#include "core/topk.h"

#include <algorithm>

namespace sdadcs::core {

namespace {
// Min-heap comparator: the weakest pattern at the root.
bool HeapGreater(const ContrastPattern& a, const ContrastPattern& b) {
  return a.measure > b.measure;
}
}  // namespace

bool TopK::Insert(const ContrastPattern& pattern) {
  if (keys_.count(pattern.itemset) > 0) return false;
  if (patterns_.size() >= k_) {
    if (pattern.measure <= patterns_.front().measure) return false;
    keys_.erase(patterns_.front().itemset);
    std::pop_heap(patterns_.begin(), patterns_.end(), HeapGreater);
    patterns_.pop_back();
  }
  keys_.insert(pattern.itemset);
  patterns_.push_back(pattern);
  std::push_heap(patterns_.begin(), patterns_.end(), HeapGreater);
  best_measure_ = std::max(best_measure_, pattern.measure);
  ++version_;
  return true;
}

double TopK::threshold() const {
  return patterns_.size() < k_ ? floor_ : patterns_.front().measure;
}

std::vector<ContrastPattern> TopK::Sorted() const {
  std::vector<ContrastPattern> out = patterns_;
  SortByMeasureDesc(&out);
  return out;
}

}  // namespace sdadcs::core
