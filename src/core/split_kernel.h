#ifndef SDADCS_CORE_SPLIT_KERNEL_H_
#define SDADCS_CORE_SPLIT_KERNEL_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
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
/// (team members each own their context and therefore their scratch).
/// Its buffers are dead between kernel calls — no kernel output may
/// alias them.
struct SplitScratch {
  /// Gather buffer of PartitionCut (the axis values it cuts).
  std::vector<double> values;
  /// Partition ping-pong buffers for the vectorized quickselect.
  data::SelectScratch select;
  /// Per surviving parent row: the row id, in selection order. The
  /// vectorized split and filter kernels size it to the input selection
  /// (the split kernel plus one entry of slack) before the scan and
  /// compact into it by position; the filters then copy their rows out
  /// at exact size.
  std::vector<uint32_t> row_ids;
  /// Parallel to row_ids: the row's cell index (bit b set = right half
  /// of splittable axis b).
  std::vector<uint32_t> row_cells;
  /// Per cell: number of rows that landed in it.
  std::vector<uint32_t> cell_sizes;
  /// Flattened per-cell, per-group counts (num_cells * num_groups).
  std::vector<double> counts;
  /// Lane-private tallies of the vectorized kernels (LaneTallies), and
  /// the root split's per-cell size and group counts.
  std::vector<uint32_t> tallies;
  /// Per cell: the word of its rows the root split is counting.
  std::vector<uint64_t> cell_words;
};

/// Commit-step counters of the vectorized kernels: `lanes` private
/// copies of `slots` uint32_t tallies carved from a scratch buffer, so
/// one lane's increment never waits on another lane's store. A kernel
/// keeps one slot per group code + 1 (slot 0 takes rows outside every
/// group), per cell for the split kernel, and folds the tallies into its
/// double counts after the scan: the totals are exact integers, so they
/// are the same doubles a row-by-row `+= 1.0` gives. Past
/// kMaxPrivateSlots slots the lanes share one copy, which is just as
/// exact.
class LaneTallies {
 public:
  static constexpr size_t kMaxPrivateSlots = 4096;

  LaneTallies(std::vector<uint32_t>* buffer, size_t lanes, size_t slots)
      : lanes_(lanes), stride_(slots <= kMaxPrivateSlots ? slots : 0) {
    buffer->assign(stride_ == 0 ? slots : lanes * slots, 0);
    data_ = buffer->data();
  }

  /// Lane `l`'s copy of the slots.
  uint32_t* lane(size_t l) const { return data_ + l * stride_; }

  /// Slot `s` summed over the lanes.
  uint64_t Sum(size_t s) const {
    if (stride_ == 0) return data_[s];
    uint64_t sum = 0;
    for (size_t l = 0; l < lanes_; ++l) sum += data_[l * stride_ + s];
    return sum;
  }

 private:
  uint32_t* data_;
  size_t lanes_;
  size_t stride_;
};

/// Output of the split kernels: the child cells of one find_combs step
/// together with their sizes and per-group counts, cell i of `cells`
/// matching entry i of `sizes` and `counts`. Cell order and row order
/// are identical to the naive FindCombs + CountGroups pipeline.
struct SplitResult {
  std::vector<Space> cells;
  std::vector<uint32_t> sizes;
  std::vector<GroupCounts> counts;
  /// The split axes, as indices into the space's bounds: bit b of a
  /// cell's index is set when the cell is the right half of axes[b].
  std::vector<int> axes;
};

/// Single-pass find_combs(p) + per-cell group counting. Computes each
/// parent row's cell mask once (n·k work for k splittable axes),
/// scatters rows into per-cell selections, and accumulates per-group
/// counts in the same pass — replacing the naive 2^k·n·k evaluation of
/// FindCombs followed by 2^k CountGroups scans. Returns an empty result
/// when no axis is splittable. Bit-identical to the naive pipeline:
/// cells come out in the same mask order with the same rows and counts.
///
/// `simd` runs pass 1 on AVX2 (scalar on hosts without it); false runs
/// the scalar oracle. The vector path commits rows without a branch —
/// every lane is written, the write position advances by the lane's
/// inside bit — and tallies groups in LaneTallies, so rows keep
/// selection order and counts stay exact: both paths yield
/// byte-identical output, which the scan-kernel and differential tests
/// pin.
SplitResult SplitAndCount(const data::Dataset& db, const data::GroupInfo& gi,
                          const Space& space, const std::vector<double>& cuts,
                          SplitScratch* scratch, bool simd);

/// One axis of a root space: its cut over the root rows and, when it
/// splits, which root rows lie right of the cut.
struct RootAxis {
  /// partition(ca) of the axis; NaN when it cannot split two ways.
  double cut = std::numeric_limits<double>::quiet_NaN();
  /// Bit i set when root row i lies right of the cut (value > cut);
  /// empty when the axis does not split.
  std::vector<uint64_t> right;
};

/// A root space's rows as bitsets over their positions (bit i stands
/// for the i-th root row), which the lattice search memoizes per root
/// row set (LatticeSearch::RootAxes): a root split over them counts
/// each cell by AND and popcount instead of a row scan. The parts are
/// immutable and shared, so a copy of the memo costs pointers only.
struct RootBits {
  /// Per group code, bit i set when root row i belongs to the group.
  std::shared_ptr<const std::vector<std::vector<uint64_t>>> groups;
  /// The axes cut over these rows so far, by attribute.
  std::map<int, std::shared_ptr<const RootAxis>> axes;
};

/// Per group code of `gi`, the bitset of the positions of `rows` whose
/// row belongs to that group.
std::vector<std::vector<uint64_t>> GroupBits(const data::GroupInfo& gi,
                                             const data::Selection& rows);

/// Cuts one axis of a root space: PartitionCut of `bound` over the root
/// rows `rows`, then the side bits of the cut from the values that cut
/// gathered, so the axis is gathered once. Every root row must hold a
/// value inside (bound.lo, bound.hi]: the root filter drops the rows
/// missing one, and root bounds enclose every analysis value
/// (data::ComputeRootBounds). `simd` gathers, selects and compares on
/// AVX2 (scalar on hosts without it); both paths return the same axis.
RootAxis CutRootAxis(const data::Dataset& db, const data::Selection& rows,
                     const AxisBound& bound, SplitKind kind,
                     SplitScratch* scratch, bool simd);

/// SplitAndCount of a root space from its bits, which must hold every
/// axis of `root`: the same cells in the same mask order, with the same
/// bounds, sizes and counts, each cell's words the AND of its side of
/// every split axis and each count a popcount. Every root row lies
/// inside the root bounds, so no row is dropped and no value is read.
/// The cells' rows are left empty; RootCellRows builds one on request.
/// `simd` counts with the host's popcount instruction; both paths give
/// the same counts.
SplitResult SplitRoot(const Space& root, const RootBits& bits,
                      SplitScratch* scratch, bool simd);

/// The rows of cell `cell` of `split`, which SplitRoot(root, bits)
/// returned: ascending, exactly as SplitAndCount gives them.
data::Selection RootCellRows(const Space& root, const RootBits& bits,
                             const SplitResult& split, size_t cell);

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_SPLIT_KERNEL_H_
