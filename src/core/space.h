#ifndef SDADCS_CORE_SPACE_H_
#define SDADCS_CORE_SPACE_H_

#include <vector>

#include "core/config.h"
#include "core/itemset.h"
#include "data/dataset.h"
#include "data/prepared.h"
#include "data/selection.h"
#include "data/simd_select.h"

namespace sdadcs::core {

/// Half-open range (lo, hi] on one continuous attribute.
struct AxisBound {
  int attr = -1;
  double lo = 0.0;
  double hi = 0.0;

  double length() const { return hi - lo; }
};

/// A hyper-rectangle over the continuous attributes being discretized,
/// together with the rows falling inside it (and matching the fixed
/// categorical itemset of the current SDAD-CS call). With two attributes
/// this is the rectangle on the scatter plot the paper describes; in
/// general a hyper-cube whose n-volume orders the merge phase.
struct Space {
  std::vector<AxisBound> bounds;  ///< one per continuous attribute
  data::Selection rows;
};

/// Display/normalization bounds of one continuous attribute; the struct
/// and its computation moved into the data layer with the
/// prepared-dataset artifacts (data/prepared.h). The aliases keep the
/// core-layer spelling working.
using RootBounds = data::RootBounds;
using data::ComputeRootBounds;

/// partition(ca) of Algorithm 1: the split value of each axis of
/// `space` (computed over the space's rows) — the median (paper default)
/// or the mean. An axis whose rows cannot be split two ways (all values
/// equal, or the cut leaves one side empty) gets NaN. `scratch`, when
/// non-null, is a reusable gather buffer for the median computation.
///
/// With `simd` set (and both scratches supplied), median cuts go
/// through the vectorized gather + quickselect kernels and the
/// split-feasibility check uses the gather pass's max instead of a
/// verification scan. That shortcut is exact only under the SDAD
/// caller's invariants — every row value on every axis lies in
/// (lo, hi] and rows missing any axis were stripped by the root
/// filter — so only the mining recursion passes simd=true.
std::vector<double> PartitionCuts(
    const data::Dataset& db, const Space& space, SplitKind kind,
    std::vector<double>* scratch = nullptr,
    data::SelectScratch* select_scratch = nullptr, bool simd = false);

/// One axis of PartitionCuts: the cut of `bound`'s attribute over
/// `rows`, NaN when the axis cannot split two ways inside (lo, hi]. The
/// cut depends on nothing but the rows, the attribute and its bounds, so
/// a caller holding several spaces with the same rows and bounds on an
/// axis (the lattice search's root spaces) computes it once.
double PartitionCut(const data::Dataset& db, const data::Selection& rows,
                    const AxisBound& bound, SplitKind kind,
                    std::vector<double>* scratch = nullptr,
                    data::SelectScratch* select_scratch = nullptr,
                    bool simd = false);

/// PartitionCuts with the paper's default, the median.
std::vector<double> PartitionMedians(const data::Dataset& db,
                                     const Space& space);

/// Hard cap on the number of axes split at once: each splittable axis
/// doubles the cell count, and the cell index must fit a machine word.
/// Splitting more axes than this in one step is never useful (2^24 cells
/// dwarf any row count), so excess axes are left unsplit with a logged
/// warning rather than invoking shift UB.
inline constexpr size_t kMaxSplitAxes = 24;

/// Indices of the splittable axes (non-NaN cuts), capped at
/// kMaxSplitAxes with a warning. Shared by the naive FindCombs and the
/// fused SplitAndCount kernel so both agree on which axes split.
std::vector<int> SplittableAxes(const std::vector<double>& cuts);

/// find_combs(p) of Algorithm 1: the child cells obtained by cutting
/// every splittable axis at its median — the Cartesian product of
/// {(lo, m], (m, hi]} over splittable axes (2^cont cells when all axes
/// split). Unsplittable axes keep their full range. Each cell's rows are
/// the subset of the space's rows inside the cell. Returns an empty
/// vector when no axis is splittable.
std::vector<Space> FindCombs(const data::Dataset& db, const Space& space,
                             const std::vector<double>& medians);

/// Normalized n-volume of `bounds`: product over axes of
/// length / root-range. Drives the smallest-first merge order.
double HyperVolume(const std::vector<AxisBound>& bounds,
                   const std::vector<RootBounds>& roots);

/// Interval items for a cell, one per axis, with bounds exactly as held
/// by the space (root bounds give the display extremes).
std::vector<Item> IntervalItems(const std::vector<AxisBound>& bounds);

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_SPACE_H_
