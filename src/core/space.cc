#include "core/space.h"

#include <cmath>
#include <limits>

#include "data/order_stats.h"
#include "util/logging.h"

namespace sdadcs::core {

double PartitionCut(const data::Dataset& db, const data::Selection& rows,
                    const AxisBound& b, SplitKind kind,
                    std::vector<double>* values,
                    data::SelectScratch* select_scratch, bool simd,
                    size_t* count) {
  constexpr double kNoCut = std::numeric_limits<double>::quiet_NaN();
  double max;
  const size_t n =
      data::GatherNonMissing(db, b.attr, rows, values, simd, &max);
  if (count != nullptr) *count = n;
  if (n == 0) return kNoCut;
  const double* v = values->data();
  double m;
  // Whether some value lies at or below the cut: the lower median is
  // one of the values; the mean need not reach the minimum.
  bool has_left = true;
  if (kind == SplitKind::kMedian) {
    // Lower middle: rank (n-1)/2, so that "value <= median" keeps at
    // least one value on each side whenever they are not all equal.
    m = data::SelectKth(v, n, (n - 1) / 2, simd, select_scratch);
  } else {
    double sum = 0.0;
    double min = v[0];
    for (size_t i = 0; i < n; ++i) {
      sum += v[i];
      if (v[i] < min) min = v[i];
    }
    m = sum / static_cast<double>(n);
    has_left = min <= m;
  }
  const bool splits = m > b.lo && m < b.hi && has_left && max > m;
  return splits ? m : kNoCut;
}

std::vector<double> PartitionCuts(const data::Dataset& db,
                                  const Space& space, SplitKind kind,
                                  std::vector<double>* values,
                                  data::SelectScratch* select_scratch,
                                  bool simd) {
  std::vector<double> local_values;
  data::SelectScratch local_select;
  std::vector<double> cuts;
  cuts.reserve(space.bounds.size());
  for (const AxisBound& b : space.bounds) {
    cuts.push_back(PartitionCut(
        db, space.rows, b, kind, values != nullptr ? values : &local_values,
        select_scratch != nullptr ? select_scratch : &local_select, simd));
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
