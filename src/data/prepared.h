#ifndef SDADCS_DATA_PREPARED_H_
#define SDADCS_DATA_PREPARED_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"
#include "data/group_info.h"
#include "data/selection.h"
#include "util/status.h"

namespace sdadcs::data {

/// Display/normalization bounds of one continuous attribute over the
/// analysis rows: lo is a "nice" value just below the minimum (min-1 for
/// integral data, matching the paper's "18 < Age" rendering; the next
/// double below the minimum where that step would round back to it),
/// hi is the maximum, so (lo, hi] holds every finite analysis value.
/// `any_missing` says whether some analysis row lacks a value;
/// when it is false the SDAD-CS root filter keeps every row, so the
/// search skips that scan. It defaults to true, so bounds built by hand
/// keep the filter.
struct RootBounds {
  double lo = 0.0;
  double hi = 0.0;
  bool any_missing = true;
};

/// Computes RootBounds of `attr` over `sel` in one pass over its rows.
RootBounds ComputeRootBounds(const Dataset& db, int attr,
                             const Selection& sel);

/// Everything a mining session derives from one group spec and nothing
/// else: the resolved groups (dense int16 codes), the default attribute
/// universe (every attribute except the group attribute), the group
/// sizes |g_k|, and the root bounds of every continuous attribute in
/// the universe over the groups' base selection. Root bounds live here
/// rather than per dataset because they depend on which rows the spec
/// admits: contrasting two of five education levels excludes rows, and
/// the excluded rows may hold the column extremes.
struct PreparedGroups {
  GroupInfo groups;
  std::vector<int> attributes;
  std::vector<double> group_sizes;
  std::unordered_map<int, RootBounds> root_bounds;

  size_t MemoryUsage() const;
};

/// Counters of one PreparedDataset; `bytes` is the resident artifact
/// footprint (what a registry byte budget should charge).
struct PreparedStats {
  uint64_t group_builds = 0;  ///< group artifacts built
  uint64_t hits = 0;          ///< artifact requests served from cache
  size_t bytes = 0;           ///< resident artifact bytes
};

/// Lazily-built, thread-safe bundle of request-invariant artifacts of
/// one sealed Dataset: a keyed cache of resolved group specs (groups,
/// universe, sizes, root bounds). Every artifact is built on first
/// request and shared thereafter; construction is single-flight, so
/// concurrent requests racing for the same artifact build it exactly
/// once and the rest wait.
///
/// The bundle borrows the dataset, which must outlive it — the serving
/// layer keeps both inside one ServedDataset so their lifetimes cannot
/// diverge. A dataset replacement produces a new ServedDataset with a
/// fresh (empty) bundle; nothing here ever needs explicit invalidation.
class PreparedDataset {
 public:
  explicit PreparedDataset(const Dataset* db);

  PreparedDataset(const PreparedDataset&) = delete;
  PreparedDataset& operator=(const PreparedDataset&) = delete;

  const Dataset& dataset() const { return *db_; }

  /// Resolved artifact of one group spec (empty `group_values` = every
  /// value of `group_attr`), built on first request. Failures (unknown
  /// attribute, unknown value, a group left empty) are returned with
  /// the data-layer status and are not cached.
  util::StatusOr<std::shared_ptr<const PreparedGroups>> Groups(
      const std::string& group_attr,
      const std::vector<std::string>& group_values) const;

  PreparedStats stats() const;
  /// Resident artifact bytes (== stats().bytes); the dataset itself is
  /// not included.
  size_t MemoryUsage() const;

 private:
  struct GroupSlot {
    /// Null while the single-flight builder runs.
    std::shared_ptr<const PreparedGroups> artifact;
  };

  util::StatusOr<std::shared_ptr<const PreparedGroups>> BuildGroups(
      const std::string& group_attr,
      const std::vector<std::string>& group_values) const;

  const Dataset* db_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::unordered_map<std::string, GroupSlot> group_slots_;
  mutable uint64_t hits_ = 0;
  mutable uint64_t group_builds_ = 0;
  mutable size_t bytes_ = 0;
};

}  // namespace sdadcs::data

#endif  // SDADCS_DATA_PREPARED_H_
