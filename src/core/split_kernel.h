#ifndef SDADCS_CORE_SPLIT_KERNEL_H_
#define SDADCS_CORE_SPLIT_KERNEL_H_

#include <cstdint>
#include <vector>

#include "core/space.h"
#include "core/support.h"
#include "data/dataset.h"
#include "data/group_info.h"
#include "data/simd_select.h"

namespace sdadcs::core {

/// Reusable scratch buffers for the split-and-count hot path. One
/// instance lives in each MiningContext and is threaded through the
/// SDAD-CS recursion; buffers grow to the working-set size once and are
/// then recycled, so the inner loop stops allocating per call.
///
/// Ownership rule: a SplitScratch belongs to exactly one mining thread
/// (parallel workers each own their context and therefore their
/// scratch). Its buffers are dead between kernel calls — no kernel
/// output may alias them.
struct SplitScratch {
  /// Gather buffer for median/quantile computation (PartitionCuts).
  std::vector<double> values;
  /// Partition ping-pong buffers for the vectorized quickselect.
  data::SelectScratch select;
  /// Per surviving parent row: the row id, in selection order.
  std::vector<uint32_t> row_ids;
  /// Parallel to row_ids: the row's cell index (bit b set = right half
  /// of splittable axis b).
  std::vector<uint32_t> row_cells;
  /// Per cell: number of rows that landed in it.
  std::vector<uint32_t> cell_sizes;
  /// Flattened per-cell, per-group counts (num_cells * num_groups).
  std::vector<double> counts;
};

/// Output of the fused partition kernel: the child cells of one
/// find_combs step together with their per-group counts, cell i of
/// `cells` matching entry i of `counts`. Cell order and row order are
/// identical to the naive FindCombs + CountGroups pipeline.
struct SplitResult {
  std::vector<Space> cells;
  std::vector<GroupCounts> counts;
};

/// Single-pass find_combs(p) + per-cell group counting. Computes each
/// parent row's cell mask once (n·k work for k splittable axes),
/// scatters rows into per-cell selections, and accumulates per-group
/// counts in the same pass — replacing the naive 2^k·n·k evaluation of
/// FindCombs followed by 2^k CountGroups scans. Returns an empty result
/// when no axis is splittable. Bit-identical to the naive pipeline:
/// cells come out in the same mask order with the same rows and counts.
///
/// `simd` runs the per-row interval tests on AVX2 (scalar on hosts
/// without it); false runs the scalar oracle. Only the comparisons are
/// vectorized — row scatter and count accumulation run in row order with
/// identical arithmetic — so both paths yield byte-identical output; the
/// scan-kernel and differential tests pin this.
SplitResult SplitAndCount(const data::Dataset& db, const data::GroupInfo& gi,
                          const Space& space, const std::vector<double>& cuts,
                          SplitScratch* scratch, bool simd);

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_SPLIT_KERNEL_H_
