#include "data/prepared.h"

#include <cmath>
#include <limits>
#include <utility>

#include "data/order_stats.h"

namespace sdadcs::data {

RootBounds ComputeRootBounds(const Dataset& db, int attr,
                             const Selection& sel) {
  MinMax mm = MinMaxInSelection(db, attr, sel);
  RootBounds rb;
  rb.any_missing = mm.missing;
  if (std::isnan(mm.min)) {
    rb.lo = 0.0;
    rb.hi = 0.0;
    return rb;
  }
  rb.hi = mm.max;
  // Pick a display lower bound just below the minimum so the item
  // "lo < x" includes every row: min-1 when the data look integral
  // (the paper renders "18 < Age <= 26" on Adult), otherwise a small
  // fraction of the range below the minimum.
  const ContinuousColumn& col = db.continuous(attr);
  // The sealed per-column cache answers the common case (fully integral
  // column) without touching the rows; only columns that do contain a
  // fractional value somewhere fall back to scanning the selection.
  bool integral = col.AllIntegral();
  if (!integral) {
    integral = true;
    for (uint32_t r : sel) {
      double v = col.value(r);
      if (std::isnan(v)) continue;
      if (v != std::floor(v)) {
        integral = false;
        break;
      }
    }
  }
  if (integral) {
    rb.lo = mm.min - 1.0;
  } else {
    double range = mm.max - mm.min;
    rb.lo = mm.min - (range > 0.0 ? 1e-9 * range : 1e-9);
  }
  // A step below half an ulp of the minimum rounds back to it (integral
  // values from 2^53 on, a range tiny next to the magnitude), and
  // (lo, hi] would then leave out every row at the minimum. The next
  // double below keeps lo strictly below every value.
  if (!(rb.lo < mm.min)) {
    rb.lo = std::nextafter(mm.min, -std::numeric_limits<double>::infinity());
  }
  return rb;
}

size_t PreparedGroups::MemoryUsage() const {
  size_t bytes = sizeof(*this);
  bytes += groups.MemoryUsage();
  bytes += attributes.capacity() * sizeof(int);
  bytes += group_sizes.capacity() * sizeof(double);
  bytes += root_bounds.size() * (sizeof(int) + sizeof(RootBounds) +
                                 2 * sizeof(void*));
  return bytes;
}

PreparedDataset::PreparedDataset(const Dataset* db) : db_(db) {}

util::StatusOr<std::shared_ptr<const PreparedGroups>>
PreparedDataset::Groups(const std::string& group_attr,
                        const std::vector<std::string>& group_values) const {
  std::string key = group_attr;
  for (const std::string& v : group_values) {
    key += '\x1f';
    key += v;
  }
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    auto it = group_slots_.find(key);
    if (it == group_slots_.end()) break;  // this thread builds
    if (it->second.artifact != nullptr) {
      ++hits_;
      return it->second.artifact;
    }
    // Another thread is building this spec (or failed and erased the
    // slot — the loop re-checks after every wake-up).
    cv_.wait(lock);
  }
  group_slots_.emplace(key, GroupSlot{});
  lock.unlock();

  util::StatusOr<std::shared_ptr<const PreparedGroups>> built =
      BuildGroups(group_attr, group_values);

  lock.lock();
  if (!built.ok()) {
    // Failures are not cached: a retry re-resolves (cheap), and an
    // error slot would pin a bad spec forever.
    group_slots_.erase(key);
    cv_.notify_all();
    return built.status();
  }
  GroupSlot& slot = group_slots_[key];
  slot.artifact = std::move(*built);
  ++group_builds_;
  bytes_ += slot.artifact->MemoryUsage();
  cv_.notify_all();
  return slot.artifact;
}

util::StatusOr<std::shared_ptr<const PreparedGroups>>
PreparedDataset::BuildGroups(
    const std::string& group_attr,
    const std::vector<std::string>& group_values) const {
  util::StatusOr<int> attr = db_->schema().IndexOf(group_attr);
  if (!attr.ok()) return attr.status();
  util::StatusOr<GroupInfo> gi =
      group_values.empty()
          ? GroupInfo::Create(*db_, *attr)
          : GroupInfo::CreateForValues(*db_, *attr, group_values);
  if (!gi.ok()) return gi.status();

  auto pg = std::make_shared<PreparedGroups>();
  pg->groups = std::move(*gi);
  pg->attributes.reserve(db_->num_attributes() - 1);
  for (size_t a = 0; a < db_->num_attributes(); ++a) {
    if (static_cast<int>(a) != pg->groups.group_attr()) {
      pg->attributes.push_back(static_cast<int>(a));
    }
  }
  pg->group_sizes.reserve(static_cast<size_t>(pg->groups.num_groups()));
  for (int g = 0; g < pg->groups.num_groups(); ++g) {
    pg->group_sizes.push_back(
        static_cast<double>(pg->groups.group_size(g)));
  }
  for (int a : pg->attributes) {
    if (db_->is_continuous(a)) {
      pg->root_bounds[a] =
          ComputeRootBounds(*db_, a, pg->groups.base_selection());
    }
  }
  return std::shared_ptr<const PreparedGroups>(std::move(pg));
}

PreparedStats PreparedDataset::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PreparedStats s;
  s.group_builds = group_builds_;
  s.hits = hits_;
  s.bytes = bytes_;
  return s;
}

size_t PreparedDataset::MemoryUsage() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace sdadcs::data
