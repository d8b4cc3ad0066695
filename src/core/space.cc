#include "core/space.h"

#include <cmath>
#include <limits>

#include "data/order_stats.h"
#include "util/logging.h"

namespace sdadcs::core {

namespace {

// Mean of the axis values over the space's rows (NaN when empty).
double MeanOnAxis(const data::Dataset& db, int attr,
                  const data::Selection& rows) {
  const data::ContinuousColumn& col = db.continuous(attr);
  double sum = 0.0;
  size_t n = 0;
  for (uint32_t r : rows) {
    double v = col.value(r);
    if (std::isnan(v)) continue;
    sum += v;
    ++n;
  }
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  return sum / static_cast<double>(n);
}

}  // namespace

double PartitionCut(const data::Dataset& db, const data::Selection& rows,
                    const AxisBound& b, SplitKind kind,
                    std::vector<double>* scratch,
                    data::SelectScratch* select_scratch, bool simd) {
  constexpr double kNoCut = std::numeric_limits<double>::quiet_NaN();
  if (simd && kind == SplitKind::kMedian && scratch != nullptr &&
      select_scratch != nullptr) {
    // Vectorized path. The SDAD invariants (rows inside (lo, hi] on
    // every axis, no missing values) make the feasibility check
    // algebraic: the left half (lo, m] always holds the median element
    // itself once m > lo, and the right half is non-empty exactly when
    // some value exceeds the cut — which the gather pass's max answers
    // without a second scan.
    double mx;
    double m = data::MedianInSelectionFast(db, b.attr, rows, scratch,
                                           select_scratch, &mx);
    bool splittable = !std::isnan(m) && m < b.hi && m > b.lo && mx > m;
    return splittable ? m : kNoCut;
  }
  double m = kind == SplitKind::kMedian
                 ? data::MedianInSelection(db, b.attr, rows, scratch)
                 : MeanOnAxis(db, b.attr, rows);
  if (std::isnan(m) || m >= b.hi || m <= b.lo) {
    return kNoCut;  // not splittable two ways inside (lo, hi]
  }
  // Both sides (lo, m] and (m, hi] must be non-empty. The lower median
  // guarantees a non-empty left side; the mean guarantees neither.
  const data::ContinuousColumn& col = db.continuous(b.attr);
  bool has_left = false;
  bool has_right = false;
  for (uint32_t r : rows) {
    double v = col.value(r);
    if (std::isnan(v)) continue;
    if (v > m && v <= b.hi) has_right = true;
    if (v > b.lo && v <= m) has_left = true;
    if (has_left && has_right) break;
  }
  return has_left && has_right ? m : kNoCut;
}

std::vector<double> PartitionCuts(const data::Dataset& db,
                                  const Space& space, SplitKind kind,
                                  std::vector<double>* scratch,
                                  data::SelectScratch* select_scratch,
                                  bool simd) {
  std::vector<double> cuts;
  cuts.reserve(space.bounds.size());
  for (const AxisBound& b : space.bounds) {
    cuts.push_back(PartitionCut(db, space.rows, b, kind, scratch,
                                select_scratch, simd));
  }
  return cuts;
}

std::vector<double> PartitionMedians(const data::Dataset& db,
                                     const Space& space) {
  return PartitionCuts(db, space, SplitKind::kMedian);
}

std::vector<int> SplittableAxes(const std::vector<double>& cuts) {
  std::vector<int> splittable;
  for (size_t i = 0; i < cuts.size(); ++i) {
    if (!std::isnan(cuts[i])) splittable.push_back(static_cast<int>(i));
  }
  if (splittable.size() > kMaxSplitAxes) {
    SDADCS_LOG(kWarning) << "split request with " << splittable.size()
                         << " splittable axes exceeds the cap of "
                         << kMaxSplitAxes
                         << "; the extra axes are left unsplit";
    splittable.resize(kMaxSplitAxes);
  }
  return splittable;
}

std::vector<Space> FindCombs(const data::Dataset& db, const Space& space,
                             const std::vector<double>& medians) {
  SDADCS_CHECK(medians.size() == space.bounds.size());
  std::vector<int> splittable = SplittableAxes(medians);
  if (splittable.empty()) return {};

  const size_t num_cells = size_t{1} << splittable.size();
  std::vector<Space> cells;
  cells.reserve(num_cells);
  for (size_t mask = 0; mask < num_cells; ++mask) {
    Space cell;
    cell.bounds = space.bounds;
    for (size_t bit = 0; bit < splittable.size(); ++bit) {
      int axis = splittable[bit];
      if (mask & (size_t{1} << bit)) {
        cell.bounds[axis].lo = medians[axis];  // right half (m, hi]
      } else {
        cell.bounds[axis].hi = medians[axis];  // left half (lo, m]
      }
    }
    cell.rows = space.rows.Filter([&](uint32_t r) {
      for (size_t bit = 0; bit < splittable.size(); ++bit) {
        int axis = splittable[bit];
        const AxisBound& b = cell.bounds[axis];
        double v = db.continuous(b.attr).value(r);
        if (std::isnan(v) || v <= b.lo || v > b.hi) return false;
      }
      return true;
    });
    cells.push_back(std::move(cell));
  }
  return cells;
}

double HyperVolume(const std::vector<AxisBound>& bounds,
                   const std::vector<RootBounds>& roots) {
  SDADCS_CHECK(bounds.size() == roots.size());
  double volume = 1.0;
  for (size_t i = 0; i < bounds.size(); ++i) {
    double range = roots[i].hi - roots[i].lo;
    if (range <= 0.0) continue;  // degenerate axis contributes nothing
    volume *= bounds[i].length() / range;
  }
  return volume;
}

std::vector<Item> IntervalItems(const std::vector<AxisBound>& bounds) {
  std::vector<Item> items;
  items.reserve(bounds.size());
  for (const AxisBound& b : bounds) {
    items.push_back(Item::Interval(b.attr, b.lo, b.hi));
  }
  return items;
}

}  // namespace sdadcs::core
