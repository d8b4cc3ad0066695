#include "data/column.h"

#include "util/logging.h"

namespace sdadcs::data {

int32_t CategoricalColumn::CodeOf(std::string_view value) const {
  auto it = index_.find(value);
  return it == index_.end() ? kMissingCode : it->second;
}

int32_t CategoricalColumn::Intern(std::string_view value) {
  auto it = index_.find(value);
  if (it != index_.end()) return it->second;
  int32_t code = static_cast<int32_t>(dictionary_.size());
  dictionary_.emplace_back(value);
  index_.emplace(dictionary_.back(), code);
  return code;
}

const std::vector<int32_t>& CategoricalColumn::codes() const {
  SDADCS_CHECK(store_ == nullptr);  // paged: use Dataset::chunks()
  return codes_;
}

void CategoricalColumn::SetDictionary(std::vector<std::string> dictionary) {
  dictionary_ = std::move(dictionary);
  index_.clear();
  for (size_t i = 0; i < dictionary_.size(); ++i) {
    index_.emplace(dictionary_[i], static_cast<int32_t>(i));
  }
}

void CategoricalColumn::BindStore(const ChunkStore* store, int attr,
                                  size_t rows) {
  store_ = store;
  attr_ = attr;
  rows_ = rows;
  codes_.clear();
  codes_.shrink_to_fit();
}

const std::vector<double>& ContinuousColumn::values() const {
  SDADCS_CHECK(store_ == nullptr);  // paged: use Dataset::chunks()
  return values_;
}

double ContinuousColumn::Min() const {
  if (stats_sealed_) return min_;
  double m = std::numeric_limits<double>::infinity();
  for (double v : values_) {
    if (!std::isnan(v) && v < m) m = v;
  }
  return m;
}

double ContinuousColumn::Max() const {
  if (stats_sealed_) return max_;
  double m = -std::numeric_limits<double>::infinity();
  for (double v : values_) {
    if (!std::isnan(v) && v > m) m = v;
  }
  return m;
}

bool ContinuousColumn::AllIntegral() const {
  if (stats_sealed_) return all_integral_;
  for (double v : values_) {
    if (std::isnan(v)) continue;
    if (v != std::floor(v)) return false;
  }
  return true;
}

void ContinuousColumn::SealStats() {
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
  all_integral_ = true;
  for (double v : values_) {
    if (std::isnan(v)) continue;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
    if (v != std::floor(v)) all_integral_ = false;
  }
  stats_sealed_ = true;
}

void ContinuousColumn::SealStatsFrom(double min, double max,
                                     bool all_integral) {
  min_ = min;
  max_ = max;
  all_integral_ = all_integral;
  stats_sealed_ = true;
}

void ContinuousColumn::BindStore(const ChunkStore* store, int attr,
                                 size_t rows) {
  store_ = store;
  attr_ = attr;
  rows_ = rows;
  values_.clear();
  values_.shrink_to_fit();
}

size_t CategoricalColumn::MemoryUsage() const {
  size_t bytes = codes_.capacity() * sizeof(int32_t);
  for (const std::string& s : dictionary_) {
    bytes += sizeof(std::string) + s.capacity();
  }
  // The intern index roughly doubles the dictionary: a node per entry
  // (string + code + bucket pointer) plus the bucket array.
  bytes += index_.size() * (sizeof(std::string) + 2 * sizeof(void*) +
                            sizeof(int32_t));
  for (const auto& [key, code] : index_) {
    (void)code;
    bytes += key.capacity();
  }
  bytes += index_.bucket_count() * sizeof(void*);
  return bytes;
}

size_t ContinuousColumn::MemoryUsage() const {
  return values_.capacity() * sizeof(double);
}

}  // namespace sdadcs::data
