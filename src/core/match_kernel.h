#ifndef SDADCS_CORE_MATCH_KERNEL_H_
#define SDADCS_CORE_MATCH_KERNEL_H_

#include <vector>

#include "core/itemset.h"
#include "core/split_kernel.h"
#include "core/support.h"
#include "data/dataset.h"
#include "data/group_info.h"
#include "data/selection.h"

namespace sdadcs::core {

/// Columnar itemset-scan kernels for the row-scan hot paths outside the
/// split kernel: categorical candidate expansion, the SDAD root filter
/// and support (re)counting. Each kernel takes the run's
/// MiningContext::simd flag:
///
///  - false runs the historical per-row Item::Matches loops verbatim
///    (the scalar oracle);
///  - true resolves each item to a raw column pointer once per chunk and
///    scans with AVX2 gathers and compares (the scalar loops again on a
///    host without AVX2). Its commit step has no data-dependent branch:
///    every lane's row is written into a compaction buffer in `scratch`
///    and the write position advances by the lane's match bit, and
///    groups are tallied in lane-private uint32_t counters
///    (LaneTallies) folded into the double counts after the scan.
///
/// Both paths are byte-identical by construction: rows are emitted in
/// selection order, counts are exact small-integer doubles, and
/// interval/NaN semantics match Item::Matches (missing values never
/// match). The filters return exact-size selections on both paths.
/// tests/core/scan_kernel_test.cc compares them directly. `scratch`
/// belongs to the calling thread (see SplitScratch); the scalar path
/// does not touch it.

/// CountMatches (support.h) on either path: per-group match counts
/// of `itemset` among `sel`.
GroupCounts CountMatchesKernel(const data::Dataset& db,
                               const data::GroupInfo& gi,
                               const Itemset& itemset,
                               const data::Selection& sel,
                               SplitScratch* scratch, bool simd);

/// Fused single-item filter + group count (the categorical candidate
/// expansion scan): rows of `sel` matching `item`, in order, with their
/// per-group counts in *gc.
data::Selection FilterCountItemKernel(const data::Dataset& db,
                                      const data::GroupInfo& gi,
                                      const Item& item,
                                      const data::Selection& sel,
                                      GroupCounts* gc, SplitScratch* scratch,
                                      bool simd);

/// The SDAD root filter: rows of `sel` with a present (non-missing)
/// value on every attribute of `cont_attrs`, in order, with per-group
/// counts in *gc.
data::Selection FilterAllPresentKernel(const data::Dataset& db,
                                       const data::GroupInfo& gi,
                                       const std::vector<int>& cont_attrs,
                                       const data::Selection& sel,
                                       GroupCounts* gc,
                                       SplitScratch* scratch, bool simd);

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_MATCH_KERNEL_H_
