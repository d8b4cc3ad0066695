#ifndef SDADCS_CORE_MATCH_KERNEL_H_
#define SDADCS_CORE_MATCH_KERNEL_H_

#include <vector>

#include "core/itemset.h"
#include "core/support.h"
#include "data/dataset.h"
#include "data/group_info.h"
#include "data/selection.h"

namespace sdadcs::core {

/// Columnar itemset-scan kernels for the row-scan hot paths outside the
/// split kernel: categorical candidate expansion, the SDAD root filter,
/// support (re)counting, and the productivity contingency scan. Each
/// kernel takes the run's MiningContext::simd flag:
///
///  - false runs the historical per-row Item::Matches loops verbatim
///    (the scalar oracle);
///  - true resolves each item to a raw column pointer once per chunk and
///    scans with AVX2 gathers and compares (the scalar loops again on a
///    host without AVX2).
///
/// Both paths are byte-identical by construction: rows are emitted in
/// selection order, counts are accumulated in the same order as exact
/// small-integer doubles, and interval/NaN semantics match Item::Matches
/// (missing values never match). tests/core/scan_kernel_test.cc compares
/// them directly.

/// CountMatches (support.h) on either path: per-group match counts
/// of `itemset` among `sel`.
GroupCounts CountMatchesKernel(const data::Dataset& db,
                               const data::GroupInfo& gi,
                               const Itemset& itemset,
                               const data::Selection& sel, bool simd);

/// Fused single-item filter + group count (the categorical candidate
/// expansion scan): rows of `sel` matching `item`, in order, with their
/// per-group counts in *gc.
data::Selection FilterCountItemKernel(const data::Dataset& db,
                                      const data::GroupInfo& gi,
                                      const Item& item,
                                      const data::Selection& sel,
                                      GroupCounts* gc, bool simd);

/// The SDAD root filter: rows of `sel` with a present (non-missing)
/// value on every attribute of `cont_attrs`, in order, with per-group
/// counts in *gc.
data::Selection FilterAllPresentKernel(const data::Dataset& db,
                                       const data::GroupInfo& gi,
                                       const std::vector<int>& cont_attrs,
                                       const data::Selection& sel,
                                       GroupCounts* gc, bool simd);

/// 2x2 contingency of two itemsets within one group: how rows of `sel`
/// belonging to `group` fall under (a, b) / (a, !b) / (!a, b) / neither.
/// The productivity filter's dependence test runs this over the full
/// base selection for every binary partition of a pattern.
struct Contingency2x2 {
  double n11 = 0.0;
  double n10 = 0.0;
  double n01 = 0.0;
  double n00 = 0.0;
};
Contingency2x2 CountPartsInGroupKernel(const data::Dataset& db,
                                       const data::GroupInfo& gi,
                                       const Itemset& a, const Itemset& b,
                                       int group, const data::Selection& sel,
                                       bool simd);

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_MATCH_KERNEL_H_
