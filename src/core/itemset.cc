#include "core/itemset.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace sdadcs::core {

Itemset::Itemset(std::vector<Item> items) : items_(std::move(items)) {
  std::sort(items_.begin(), items_.end(), ItemLess);
  for (size_t i = 1; i < items_.size(); ++i) {
    SDADCS_CHECK(items_[i - 1].attr != items_[i].attr);
  }
}

bool Itemset::ConstrainsAttribute(int attr) const {
  return ItemOn(attr) != nullptr;
}

const Item* Itemset::ItemOn(int attr) const {
  for (const Item& it : items_) {
    if (it.attr == attr) return &it;
    if (it.attr > attr) break;
  }
  return nullptr;
}

Itemset Itemset::WithItem(const Item& it) const {
  std::vector<Item> items;
  items.reserve(items_.size() + 1);
  for (const Item& existing : items_) {
    if (existing.attr != it.attr) items.push_back(existing);
  }
  items.push_back(it);
  return Itemset(std::move(items));
}

Itemset Itemset::WithoutAttribute(int attr) const {
  std::vector<Item> items;
  items.reserve(items_.size());
  for (const Item& existing : items_) {
    if (existing.attr != attr) items.push_back(existing);
  }
  return Itemset(std::move(items));
}

Itemset Itemset::WithoutIntervals() const {
  std::vector<Item> items;
  for (const Item& existing : items_) {
    if (existing.kind == Item::Kind::kCategorical) items.push_back(existing);
  }
  return Itemset(std::move(items));
}

bool Itemset::Matches(const data::Dataset& db, uint32_t row) const {
  for (const Item& it : items_) {
    if (!it.Matches(db, row)) return false;
  }
  return true;
}

data::Selection Itemset::Cover(const data::Dataset& db,
                               const data::Selection& sel) const {
  return sel.Filter([this, &db](uint32_t r) { return Matches(db, r); });
}

bool Itemset::Specializes(const Itemset& other) const {
  for (const Item& gen : other.items()) {
    const Item* mine = ItemOn(gen.attr);
    if (mine == nullptr || !mine->ContainedIn(gen)) return false;
  }
  return true;
}

Itemset Itemset::Complement(const Itemset& subset) const {
  std::vector<Item> items;
  for (const Item& it : items_) {
    if (subset.ItemOn(it.attr) == nullptr) items.push_back(it);
  }
  return Itemset(std::move(items));
}

std::string Itemset::Key() const {
  std::string key;
  for (const Item& it : items_) {
    if (!key.empty()) key += '|';
    key += it.Key();
  }
  return key;
}

std::string Itemset::ToString(const data::Dataset& db) const {
  if (items_.empty()) return "{}";
  std::string out;
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += " and ";
    out += items_[i].ToString(db);
  }
  return out;
}

}  // namespace sdadcs::core

size_t std::hash<sdadcs::core::Itemset>::operator()(
    const sdadcs::core::Itemset& itemset) const {
  using sdadcs::core::HashMix;
  using sdadcs::core::Item;
  uint64_t h = 0;
  for (const Item& it : itemset.items()) {
    h = HashMix(h, static_cast<uint64_t>(it.attr));
    h = HashMix(h, static_cast<uint64_t>(it.kind));
    if (it.kind == Item::Kind::kCategorical) {
      h = HashMix(h, static_cast<uint64_t>(it.code));
    } else {
      h = HashMix(h, std::bit_cast<uint64_t>(it.lo));
      h = HashMix(h, std::bit_cast<uint64_t>(it.hi));
    }
  }
  return static_cast<size_t>(h);
}
