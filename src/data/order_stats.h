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

/// MedianInSelection through the vectorized kernels: one fused
/// gather + NaN-compress + max pass, then a SIMD 3-way quickselect
/// (data/simd_select.h). Returns the identical double to
/// MedianInSelection. *max_out receives the selection's maximum
/// non-missing value (NaN when empty) — the split-feasibility test
/// "does any value exceed the cut?" falls out of the gather pass for
/// free, so callers can skip their verification scan. Falls back to
/// the scalar gather + nth_element on hosts without AVX2.
double MedianInSelectionFast(const Dataset& db, int attr,
                             const Selection& sel,
                             std::vector<double>* scratch,
                             SelectScratch* select_scratch, double* max_out);

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
