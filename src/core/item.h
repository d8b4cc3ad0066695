#ifndef SDADCS_CORE_ITEM_H_
#define SDADCS_CORE_ITEM_H_

#include <bit>
#include <cstdint>
#include <limits>
#include <string>

#include "data/dataset.h"

namespace sdadcs::core {

/// One condition on one attribute: either a categorical equality
/// (attr = value) or a half-open continuous range (lo < attr <= hi),
/// matching the paper's "a < Age <= b" item notation. Items in a
/// continuous attribute may overlap across patterns.
struct Item {
  enum class Kind { kCategorical, kInterval };

  int attr = -1;
  Kind kind = Kind::kCategorical;
  /// Dictionary code for categorical items.
  int32_t code = data::kMissingCode;
  /// Bounds for interval items: the item matches v iff lo < v <= hi.
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();

  static Item Categorical(int attr, int32_t code) {
    Item it;
    it.attr = attr;
    it.kind = Kind::kCategorical;
    it.code = code;
    return it;
  }

  static Item Interval(int attr, double lo, double hi) {
    Item it;
    it.attr = attr;
    it.kind = Kind::kInterval;
    it.lo = lo;
    it.hi = hi;
    return it;
  }

  /// True if `row`'s value satisfies this condition. Missing values never
  /// match.
  bool Matches(const data::Dataset& db, uint32_t row) const;

  /// True if every value matching this item also matches `general`
  /// (same attribute, equal code / containing interval). Used by the
  /// prune-table containment check: anything pruned for a general region
  /// stays pruned in its sub-regions.
  bool ContainedIn(const Item& general) const;

  /// Canonical machine string, stable across runs; orders output ties.
  std::string Key() const;

  /// Human-readable rendering, e.g. "18 < age <= 26" or
  /// "occupation = Prof-specialty".
  std::string ToString(const data::Dataset& db) const;

  /// Equal exactly when the Key() strings are: interval bounds compare
  /// bit for bit, so -0.0 and 0.0 are different bounds.
  friend bool operator==(const Item& a, const Item& b) {
    if (a.attr != b.attr || a.kind != b.kind) return false;
    if (a.kind == Kind::kCategorical) return a.code == b.code;
    return std::bit_cast<uint64_t>(a.lo) == std::bit_cast<uint64_t>(b.lo) &&
           std::bit_cast<uint64_t>(a.hi) == std::bit_cast<uint64_t>(b.hi);
  }
};

/// Folds `v` into the running hash `h`; the itemset hash and the prune
/// index's bucket hash are built from it.
inline uint64_t HashMix(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// Orders items by attribute, then kind, then value — the canonical
/// order inside an itemset.
bool ItemLess(const Item& a, const Item& b);

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_ITEM_H_
