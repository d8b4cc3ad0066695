#ifndef SDADCS_CORE_ITEMSET_H_
#define SDADCS_CORE_ITEMSET_H_

#include <functional>
#include <string>
#include <vector>

#include "core/item.h"
#include "data/dataset.h"
#include "data/selection.h"

namespace sdadcs::core {

/// A conjunction of items, at most one per attribute, kept sorted by
/// attribute index. The empty itemset matches every row.
class Itemset {
 public:
  Itemset() = default;
  explicit Itemset(std::vector<Item> items);

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  const Item& item(size_t i) const { return items_[i]; }
  const std::vector<Item>& items() const { return items_; }

  /// True if some item constrains `attr`.
  bool ConstrainsAttribute(int attr) const;

  /// The item on `attr`, or nullptr.
  const Item* ItemOn(int attr) const;

  /// Copy of this itemset with `it` added (or replacing the existing item
  /// on the same attribute).
  Itemset WithItem(const Item& it) const;

  /// Copy with the item on `attr` removed (no-op if absent).
  Itemset WithoutAttribute(int attr) const;

  /// Copy keeping only the categorical items (the fixed part of an
  /// SDAD-CS call; interval items are re-derived from region bounds).
  Itemset WithoutIntervals() const;

  /// True if `row` satisfies every item.
  bool Matches(const data::Dataset& db, uint32_t row) const;

  /// Rows of `sel` matching every item.
  data::Selection Cover(const data::Dataset& db,
                        const data::Selection& sel) const;

  /// True if every item of `other` is contained in (implied by) an item
  /// of this itemset — i.e. this itemset is a specialization of `other`.
  bool Specializes(const Itemset& other) const;

  /// Complement of `subset` within this itemset (items not in subset).
  Itemset Complement(const Itemset& subset) const;

  /// Canonical machine string, equal for equal itemsets. Breaks ties
  /// where output is ordered; containers key on the Itemset itself.
  std::string Key() const;

  /// "item1 and item2 and ..." (or "{}" when empty).
  std::string ToString(const data::Dataset& db) const;

  friend bool operator==(const Itemset& a, const Itemset& b) {
    return a.items_ == b.items_;
  }

 private:
  std::vector<Item> items_;
};

}  // namespace sdadcs::core

/// Hashes what Itemset equality compares: each item's attribute, kind and
/// code or bound bits. Keys the run's memos, the top-k and the beam's
/// duplicate sets.
template <>
struct std::hash<sdadcs::core::Itemset> {
  size_t operator()(const sdadcs::core::Itemset& itemset) const;
};

#endif  // SDADCS_CORE_ITEMSET_H_
