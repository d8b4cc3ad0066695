#include "core/split_kernel.h"

#include <cmath>

#include "data/chunks.h"
#include "util/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SDADCS_SPLIT_KERNEL_X86 1
#include <immintrin.h>
#else
#define SDADCS_SPLIT_KERNEL_X86 0
#endif

namespace sdadcs::core {

namespace {

// Columnar view of one splittable axis inside one pinned chunk: the
// chunk's value buffer (indexed by row - row_base) plus the parent
// bounds and the cut. Kept in a flat array so the per-row loop touches
// no indirection beyond the chunk data itself.
struct AxisView {
  const double* values;
  double lo;
  double hi;
  double cut;
};

// Pass 1 of SplitAndCount over one chunk span `rows[0..n)` (global row
// ids, all inside the chunk starting at row_base): classify each row
// into its cell (or drop it), append survivors to the scratch row/cell
// arrays and accumulate cell sizes and per-group counts. Factored out so
// the vectorized kernel can reuse it for the tail rows.
void Pass1Scalar(const uint32_t* rows, size_t n, uint32_t row_base,
                 const AxisView* axes, size_t k, const int16_t* groups,
                 size_t num_groups, SplitScratch* scratch) {
  for (size_t i = 0; i < n; ++i) {
    uint32_t r = rows[i];
    uint32_t local = r - row_base;
    uint32_t cell = 0;
    bool inside = true;
    for (size_t bit = 0; bit < k; ++bit) {
      const AxisView& a = axes[bit];
      double v = a.values[local];
      // NaN fails both comparisons' complements, so the single ordered
      // test below rejects missing values too.
      if (!(v > a.lo && v <= a.hi)) {
        inside = false;
        break;
      }
      cell |= static_cast<uint32_t>(v > a.cut) << bit;
    }
    if (!inside) continue;
    scratch->row_ids.push_back(r);
    scratch->row_cells.push_back(cell);
    ++scratch->cell_sizes[cell];
    int16_t g = groups[r];
    if (g >= 0) scratch->counts[cell * num_groups + g] += 1.0;
  }
}

#if SDADCS_SPLIT_KERNEL_X86

// AVX2 pass 1 over one chunk span: four rows per iteration. The gather
// indices are rebased to the chunk (row - row_base) so the value pointer
// is never biased outside its buffer. Only the interval comparisons run
// vectorized — values are gathered per axis and tested with ordered
// predicates (_CMP_GT_OQ / _CMP_LE_OQ reject NaN exactly like the scalar
// `!(v > lo && v <= hi)` test). Surviving lanes are then committed one
// by one *in row order* with the same scalar scatter/count arithmetic as
// Pass1Scalar, so the output is byte-identical by construction.
__attribute__((target("avx2"))) void Pass1Avx2(
    const uint32_t* rows, size_t n, uint32_t row_base, const AxisView* axes,
    size_t k, const int16_t* groups, size_t num_groups,
    SplitScratch* scratch) {
  const __m128i base = _mm_set1_epi32(static_cast<int32_t>(row_base));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i rid = _mm_sub_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + i)), base);
    unsigned inside = 0xFu;   // lane l bit set = row i+l inside so far
    unsigned cell_bits[4] = {0, 0, 0, 0};
    for (size_t bit = 0; bit < k && inside != 0; ++bit) {
      const AxisView& a = axes[bit];
      __m256d v = _mm256_i32gather_pd(a.values, rid, 8);
      __m256d in_lo = _mm256_cmp_pd(v, _mm256_set1_pd(a.lo), _CMP_GT_OQ);
      __m256d in_hi = _mm256_cmp_pd(v, _mm256_set1_pd(a.hi), _CMP_LE_OQ);
      inside &= static_cast<unsigned>(
          _mm256_movemask_pd(_mm256_and_pd(in_lo, in_hi)));
      unsigned gt_cut = static_cast<unsigned>(_mm256_movemask_pd(
          _mm256_cmp_pd(v, _mm256_set1_pd(a.cut), _CMP_GT_OQ)));
      for (int lane = 0; lane < 4; ++lane) {
        cell_bits[lane] |= ((gt_cut >> lane) & 1u) << bit;
      }
    }
    for (int lane = 0; lane < 4; ++lane) {
      if (((inside >> lane) & 1u) == 0) continue;
      uint32_t r = rows[i + lane];
      uint32_t cell = cell_bits[lane];
      scratch->row_ids.push_back(r);
      scratch->row_cells.push_back(cell);
      ++scratch->cell_sizes[cell];
      int16_t g = groups[r];
      if (g >= 0) scratch->counts[cell * num_groups + g] += 1.0;
    }
  }
  Pass1Scalar(rows + i, n - i, row_base, axes, k, groups, num_groups,
              scratch);
}

#endif  // SDADCS_SPLIT_KERNEL_X86

}  // namespace

SplitResult SplitAndCount(const data::Dataset& db, const data::GroupInfo& gi,
                          const Space& space, const std::vector<double>& cuts,
                          SplitScratch* scratch, bool simd) {
  SDADCS_CHECK(cuts.size() == space.bounds.size());
  SplitResult out;
  const std::vector<int> splittable = SplittableAxes(cuts);
  if (splittable.empty()) return out;

  const size_t k = splittable.size();
  const size_t num_cells = size_t{1} << k;
  const size_t num_groups = static_cast<size_t>(gi.num_groups());

  // Pass 1 — one scan of the parent rows: compute each row's cell index
  // (bit b = right half of splittable axis b), drop rows that are
  // missing or outside the parent bounds on a splittable axis (exactly
  // the rows the naive per-cell Filter rejects everywhere), and fuse the
  // per-cell group counting into the same scan. The scan walks the
  // selection chunk span by chunk span, pinning the k axis chunks of the
  // current span; rows are committed in selection order across spans, so
  // the chunked loop produces byte-identical output to the monolithic
  // one.
  scratch->row_ids.clear();
  scratch->row_cells.clear();
  scratch->row_ids.reserve(space.rows.size());
  scratch->row_cells.reserve(space.rows.size());
  scratch->cell_sizes.assign(num_cells, 0);
  scratch->counts.assign(num_cells * num_groups, 0.0);
  const int16_t* groups = gi.group_codes();

  const uint32_t* rows = space.rows.rows().data();
  const size_t n = space.rows.size();
  const bool vectorized = simd && data::Avx2Supported();
  data::ColumnChunks chunks = db.chunks();
  data::ForEachChunkSpan(
      chunks.layout(), rows, n, [&](uint32_t chunk, size_t b, size_t e) {
        data::PinnedChunk pins[kMaxSplitAxes];
        AxisView axes[kMaxSplitAxes];
        for (size_t bit = 0; bit < k; ++bit) {
          pins[bit] =
              chunks.Continuous(space.bounds[splittable[bit]].attr, chunk);
          axes[bit] = {pins[bit].values(),
                       space.bounds[splittable[bit]].lo,
                       space.bounds[splittable[bit]].hi,
                       cuts[splittable[bit]]};
        }
        const uint32_t row_base = pins[0].row_base();
#if SDADCS_SPLIT_KERNEL_X86
        if (vectorized) {
          Pass1Avx2(rows + b, e - b, row_base, axes, k, groups, num_groups,
                    scratch);
        } else {
          Pass1Scalar(rows + b, e - b, row_base, axes, k, groups, num_groups,
                      scratch);
        }
#else
        Pass1Scalar(rows + b, e - b, row_base, axes, k, groups, num_groups,
                    scratch);
#endif
      });
  (void)vectorized;

  // Pass 2 — materialize the cells in mask order. Scattering rows in
  // selection order keeps every cell's row vector sorted.
  out.cells.resize(num_cells);
  out.counts.resize(num_cells);
  std::vector<std::vector<uint32_t>> cell_rows(num_cells);
  for (size_t mask = 0; mask < num_cells; ++mask) {
    Space& cell = out.cells[mask];
    cell.bounds = space.bounds;
    for (size_t bit = 0; bit < k; ++bit) {
      int axis = splittable[bit];
      if (mask & (size_t{1} << bit)) {
        cell.bounds[axis].lo = cuts[axis];  // right half (m, hi]
      } else {
        cell.bounds[axis].hi = cuts[axis];  // left half (lo, m]
      }
    }
    cell_rows[mask].reserve(scratch->cell_sizes[mask]);
    out.counts[mask].counts.assign(
        scratch->counts.begin() + mask * num_groups,
        scratch->counts.begin() + (mask + 1) * num_groups);
  }
  for (size_t i = 0; i < scratch->row_ids.size(); ++i) {
    cell_rows[scratch->row_cells[i]].push_back(scratch->row_ids[i]);
  }
  for (size_t mask = 0; mask < num_cells; ++mask) {
    out.cells[mask].rows = data::Selection(std::move(cell_rows[mask]));
  }
  return out;
}

}  // namespace sdadcs::core
