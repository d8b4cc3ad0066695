#ifndef SDADCS_DATA_ORDER_STATS_H_
#define SDADCS_DATA_ORDER_STATS_H_

#include <vector>

#include "data/dataset.h"
#include "data/selection.h"
#include "data/simd_select.h"

namespace sdadcs::data {

// Order statistics of one continuous attribute over a row selection:
// the SDAD-CS split medians, quantiles and the root-bound extremes.

/// Median of `attr` over the rows in `sel` (non-missing only), computed
/// by gathering + nth_element. Returns NaN if the selection has no
/// non-missing values. For even counts returns the lower middle value,
/// which keeps the split value an actual data point — important because
/// SDAD-CS splits at "x <= median" and both halves must be non-empty.
/// `scratch`, when non-null, is the reusable gather buffer — the SDAD
/// recursion computes one median per axis per call, and reusing the
/// buffer keeps the hot path allocation-free.
double MedianInSelection(const Dataset& db, int attr, const Selection& sel,
                         std::vector<double>* scratch = nullptr);

/// Gathers the non-missing values of `attr` over `sel`, in row order,
/// into (*out)[0..count) and returns count; *max_out, when given, gets
/// their maximum (NaN when none). `out` grows to sel.size() + 4 (the
/// vectorized gather's slack) and never shrinks. `simd` gathers on
/// AVX2 (scalar on hosts without it); both paths give the same values.
size_t GatherNonMissing(const Dataset& db, int attr, const Selection& sel,
                        std::vector<double>* out, bool simd,
                        double* max_out = nullptr);

/// q-quantile (0<=q<=1) of `attr` over `sel`, by rank floor(q*(n-1)).
double QuantileInSelection(const Dataset& db, int attr, const Selection& sel,
                           double q, std::vector<double>* scratch = nullptr);

/// Gathers the non-missing values of `attr` over `sel` into `out`
/// (cleared first, capacity preserved).
void GatherValuesInto(const Dataset& db, int attr, const Selection& sel,
                      std::vector<double>* out);

/// Minimum and maximum of `attr` over `sel`; {NaN, NaN} when no
/// selected row holds a value. `missing` records whether some selected
/// row lacks one, so callers learn it from the same pass.
struct MinMax {
  double min;
  double max;
  bool missing = false;
};
MinMax MinMaxInSelection(const Dataset& db, int attr, const Selection& sel);

}  // namespace sdadcs::data

#endif  // SDADCS_DATA_ORDER_STATS_H_
