#ifndef SDADCS_CORE_SUPPORT_H_
#define SDADCS_CORE_SUPPORT_H_

#include <vector>

#include "core/itemset.h"
#include "data/dataset.h"
#include "data/group_info.h"
#include "data/selection.h"

namespace sdadcs::core {

/// Per-group match counts of a pattern, plus derived supports. Supports
/// always use the *global* group sizes |g_k| as denominators (Eq. 1 /
/// Eq. 5) regardless of which sub-space the counts came from.
struct GroupCounts {
  std::vector<double> counts;

  double total() const {
    double t = 0.0;
    for (double c : counts) t += c;
    return t;
  }

  /// counts[g] / |g| for each group.
  std::vector<double> Supports(const data::GroupInfo& gi) const;
};

/// Counts itemset matches per group among the rows of `sel`. Rows outside
/// any group of interest contribute nothing (they are absent from the
/// base selection by construction).
GroupCounts CountMatches(const data::Dataset& db, const data::GroupInfo& gi,
                         const Itemset& itemset, const data::Selection& sel);

/// Counts rows per group in `sel` without any itemset filtering — the
/// cell counts used by SDAD-CS when the selection already encodes the
/// pattern's cover.
GroupCounts CountGroups(const data::GroupInfo& gi,
                        const data::Selection& sel);

/// Fused filter + group count: one scan of `sel` both collects the rows
/// satisfying `pred` (order preserved) and accumulates their per-group
/// counts into `*gc`. Replaces the Selection::Filter-then-CountGroups
/// double scan at every call site that needs both. The returned
/// selection holds no spare capacity.
template <typename Pred>
data::Selection FilterCountGroups(const data::GroupInfo& gi,
                                  const data::Selection& sel, Pred&& pred,
                                  GroupCounts* gc) {
  gc->counts.assign(gi.num_groups(), 0.0);
  const int16_t* groups = gi.group_codes();
  std::vector<uint32_t> rows;
  rows.reserve(sel.size());
  for (uint32_t r : sel) {
    if (!pred(r)) continue;
    rows.push_back(r);
    int16_t g = groups[r];
    if (g >= 0) gc->counts[g] += 1.0;
  }
  rows.shrink_to_fit();  // callers may keep the selection for a run
  return data::Selection(std::move(rows));
}

/// Group sizes |g_k| as doubles (for the statistics code).
std::vector<double> GroupSizes(const data::GroupInfo& gi);

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_SUPPORT_H_
