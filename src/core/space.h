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

/// partition(ca) of Algorithm 1 on one axis: gathers the non-missing
/// values of `bound`'s attribute over `rows`, in row order, into
/// (*values)[0..*count), and returns their median (the lower middle,
/// the paper default) or mean when some gathered value lies on each
/// side of it and it lies inside (lo, hi); NaN otherwise (all values
/// equal, a one-sided mean, no value). In the SDAD recursion every row
/// holds a value inside (lo, hi] on every axis — the root filter drops
/// rows missing one and the root bounds enclose every value — so both
/// halves (lo, m] and (m, hi] of a cut are non-empty. The gather keeps
/// the values' maximum and the mean pass their minimum, so no second
/// scan checks the halves. `simd` gathers and selects on AVX2 (scalar
/// on hosts without it); both paths return the same cut. This is the
/// one cut routine: PartitionCuts cuts every axis of a space with it,
/// and CutRootAxis (core/split_kernel.h) takes a root axis's side bits
/// from the values it leaves.
double PartitionCut(const data::Dataset& db, const data::Selection& rows,
                    const AxisBound& bound, SplitKind kind,
                    std::vector<double>* values,
                    data::SelectScratch* select_scratch, bool simd,
                    size_t* count = nullptr);

/// PartitionCut of every axis of `space`, over the space's rows. The
/// scratches, when given, are reused across calls (the SDAD recursion
/// cuts every space it splits); `simd` is PartitionCut's.
std::vector<double> PartitionCuts(
    const data::Dataset& db, const Space& space, SplitKind kind,
    std::vector<double>* values = nullptr,
    data::SelectScratch* select_scratch = nullptr, bool simd = false);

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
