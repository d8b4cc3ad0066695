#ifndef SDADCS_DATA_COLUMN_H_
#define SDADCS_DATA_COLUMN_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "data/chunks.h"

namespace sdadcs::data {

/// Sentinel code for a missing categorical value. Missing values never
/// match any item (the paper's datasets contain missing / mis-entered
/// values; see the redundancy discussion in Section 4.3).
inline constexpr int32_t kMissingCode = -1;

/// Dictionary-encoded categorical column. Values are small int32 codes;
/// the dictionary maps codes back to strings. Append-only while
/// building.
///
/// Two storage modes. Resident (default): the code array lives in
/// `codes_`. Paged (spill-backed): the codes live in a ChunkStore and
/// only the dictionary stays resident — scalar accessors route through
/// the store's chunk cache, and bulk access goes chunk-wise through
/// Dataset::chunks(). `codes()` is resident-only by contract.
class CategoricalColumn {
 public:
  size_t size() const { return store_ != nullptr ? rows_ : codes_.size(); }

  /// Code at `row` (kMissingCode if missing).
  int32_t code(uint32_t row) const {
    return store_ != nullptr ? store_->CodeAt(attr_, row) : codes_[row];
  }

  bool is_missing(uint32_t row) const { return code(row) == kMissingCode; }

  /// Number of distinct non-missing values seen so far.
  int32_t cardinality() const {
    return static_cast<int32_t>(dictionary_.size());
  }

  /// String for `code`. Requires 0 <= code < cardinality().
  const std::string& ValueOf(int32_t code) const { return dictionary_[code]; }

  /// Code for `value`, or kMissingCode if the value has never been seen.
  int32_t CodeOf(std::string_view value) const;

  /// Interns `value` (adding it to the dictionary if new) and returns
  /// its code. Only a new value allocates.
  int32_t Intern(std::string_view value);

  /// Appends a value, interning it.
  void Append(std::string_view value) { codes_.push_back(Intern(value)); }

  /// Appends a pre-interned code (kMissingCode allowed).
  void AppendCode(int32_t code) { codes_.push_back(code); }

  /// Appends a missing value.
  void AppendMissing() { codes_.push_back(kMissingCode); }

  /// The resident code array. Resident mode only — a paged column has no
  /// whole-column array to hand out; go through Dataset::chunks().
  const std::vector<int32_t>& codes() const;

  /// Spill-open plumbing: replaces the dictionary wholesale (rebuilding
  /// the intern index) and binds the code storage to `store` attribute
  /// `attr` with `rows` rows.
  void SetDictionary(std::vector<std::string> dictionary);
  void BindStore(const ChunkStore* store, int attr, size_t rows);

  const std::vector<std::string>& dictionary() const { return dictionary_; }

  /// Approximate resident bytes: code array (resident mode), dictionary
  /// strings and the intern index. Paged chunk buffers are accounted by
  /// the ChunkStore, not here.
  size_t MemoryUsage() const;

 private:
  // Hashes std::string and std::string_view alike, so a lookup by view
  // builds no string.
  struct ViewHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<int32_t> codes_;
  std::vector<std::string> dictionary_;
  std::unordered_map<std::string, int32_t, ViewHash, std::equal_to<>> index_;
  const ChunkStore* store_ = nullptr;  // paged mode; null = resident
  int attr_ = -1;
  size_t rows_ = 0;
};

/// Continuous (real-valued) column. NaN encodes a missing value.
/// Storage modes mirror CategoricalColumn: resident `values_` by
/// default, or paged through a ChunkStore with only the sealed stats
/// (min/max/all-integral) resident.
class ContinuousColumn {
 public:
  size_t size() const { return store_ != nullptr ? rows_ : values_.size(); }

  double value(uint32_t row) const {
    return store_ != nullptr ? store_->ValueAt(attr_, row) : values_[row];
  }

  bool is_missing(uint32_t row) const { return std::isnan(value(row)); }

  void Append(double v) {
    values_.push_back(v);
    stats_sealed_ = false;
  }

  void AppendMissing() {
    values_.push_back(std::numeric_limits<double>::quiet_NaN());
  }

  /// The resident value array. Resident mode only — bulk access to a
  /// paged column goes chunk-wise through Dataset::chunks().
  const std::vector<double>& values() const;

  /// Minimum over non-missing values (+inf if all missing). O(1) once
  /// sealed, otherwise a scan.
  double Min() const;
  /// Maximum over non-missing values (-inf if all missing).
  double Max() const;

  /// True when every non-missing value is integral (v == floor(v)).
  /// Answered from the cache sealed at Dataset build time when
  /// available, otherwise by scanning the column.
  bool AllIntegral() const;

  /// Computes and caches Min/Max/AllIntegral in one scan; called by
  /// DatasetBuilder::Build so the shared immutable Dataset answers those
  /// queries in O(1) — and so the spill writer can persist them for the
  /// paged open, which has no cheap way to rescan. Appending after
  /// sealing invalidates the cache.
  void SealStats();

  /// Spill-open plumbing: installs previously-sealed stats and binds the
  /// value storage to `store` attribute `attr` with `rows` rows.
  void SealStatsFrom(double min, double max, bool all_integral);
  void BindStore(const ChunkStore* store, int attr, size_t rows);

  bool stats_sealed() const { return stats_sealed_; }
  double sealed_min() const { return min_; }
  double sealed_max() const { return max_; }

  /// Approximate resident bytes of the value array (resident mode;
  /// paged chunk buffers are accounted by the ChunkStore).
  size_t MemoryUsage() const;

 private:
  std::vector<double> values_;
  bool stats_sealed_ = false;
  bool all_integral_ = false;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  const ChunkStore* store_ = nullptr;  // paged mode; null = resident
  int attr_ = -1;
  size_t rows_ = 0;
};

}  // namespace sdadcs::data

#endif  // SDADCS_DATA_COLUMN_H_
