#include "core/split_kernel.h"

#include <bit>
#include <cmath>

#include "data/chunks.h"
#include "util/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SDADCS_SPLIT_KERNEL_X86 1
#include "data/avx2_gather.h"
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
// arrays and accumulate cell sizes and per-group counts. The scalar
// oracle of Pass1Avx2.
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

// Rows of one vector step: four row ids and which of them are real (the
// last step of a span pads with its first row).
struct Step4 {
  const uint32_t* rows;
  unsigned valid;
};

// One AVX2 step of pass 1 over four rows. The gather indices are
// rebased to the chunk (row - row_base) so the value pointer is never
// biased outside its buffer. Values are gathered per axis and tested
// with ordered predicates (_CMP_GT_OQ / _CMP_LE_OQ reject NaN exactly
// like the scalar `!(v > lo && v <= hi)` test). Every lane is then
// committed without a branch: its row and cell are written at `w`, and
// `w` and the lane's (cell, group) tally advance by its inside bit, so
// survivors land in row order. Returns the new write position.
__attribute__((target("avx2"), always_inline)) inline size_t Pass1Step(
    Step4 step, uint32_t row_base, const AxisView* axes, size_t k,
    const int16_t* groups, size_t slots_per_cell, uint32_t* out_rows,
    uint32_t* out_cells, const LaneTallies& tallies, size_t w) {
  __m128i rid = _mm_sub_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(step.rows)),
      _mm_set1_epi32(static_cast<int32_t>(row_base)));
  unsigned inside = step.valid;  // lane l bit set = row l inside so far
  unsigned cell_bits[4] = {0, 0, 0, 0};
  for (size_t bit = 0; bit < k && inside != 0; ++bit) {
    const AxisView& a = axes[bit];
    __m256d v = data::GatherPd(a.values, rid);
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
    const uint32_t r = step.rows[lane];
    const uint32_t cell = cell_bits[lane];
    const uint32_t hit = (inside >> lane) & 1u;
    out_rows[w] = r;
    out_cells[w] = cell;
    w += hit;
    tallies.lane(lane)[cell * slots_per_cell +
                       static_cast<size_t>(groups[r] + 1)] += hit;
  }
  return w;
}

// AVX2 pass 1 over one chunk span `rows[0..n)`, four rows per step:
// writes survivors at out_rows/out_cells[0..) and returns their number.
// The arrays need one entry of slack past the span's rows, which the
// padding lanes of a last step may write (and not keep).
__attribute__((target("avx2"))) size_t Pass1Avx2(
    const uint32_t* rows, size_t n, uint32_t row_base, const AxisView* axes,
    size_t k, const int16_t* groups, size_t slots_per_cell,
    uint32_t* out_rows, uint32_t* out_cells, const LaneTallies& tallies) {
  size_t w = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    w = Pass1Step({rows + i, 0xFu}, row_base, axes, k, groups,
                  slots_per_cell, out_rows, out_cells, tallies, w);
  }
  if (i < n) {
    uint32_t padded[4];
    for (size_t lane = 0; lane < 4; ++lane) {
      padded[lane] = rows[i + lane < n ? i + lane : i];
    }
    const unsigned valid = (1u << (n - i)) - 1u;
    w = Pass1Step({padded, valid}, row_base, axes, k, groups, slots_per_cell,
                  out_rows, out_cells, tallies, w);
  }
  return w;
}

#endif  // SDADCS_SPLIT_KERNEL_X86

// Bit i of words[0..(n + 63) / 64), which start zeroed, set when
// values[i] > cut. The scalar oracle of RightOfCutAvx2.
void RightOfCutScalar(const double* values, size_t n, double cut,
                      uint64_t* words) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bit = values[i] > cut ? 1 : 0;
    words[i / 64] |= bit << (i % 64);
  }
}

// Counts the rows and the per-group rows of every cell of a root split,
// one 64-row word at a time: the word's rows are parted into the cells
// axis by axis (after axis b, words[m] holds the rows of partial cell
// m < 2^(b+1)), then each cell's word is popcounted, alone and ANDed
// with each group's word. tallies[cell * (G + 1)] takes the cell's
// size and tallies[cell * (G + 1) + 1 + g] its rows in group g. Bits
// past the n root rows are masked off the last word, so the left side
// of an axis (the complement of its right bits) holds no phantom row.
__attribute__((always_inline)) inline void TallyRootCellsBody(
    const uint64_t* const* right, size_t k, const uint64_t* const* groups,
    size_t num_groups, size_t n, uint64_t* words, uint32_t* tallies) {
  const size_t num_words = (n + 63) / 64;
  const size_t num_cells = size_t{1} << k;
  const size_t slots = num_groups + 1;
  for (size_t w = 0; w < num_words; ++w) {
    const size_t left = n - w * 64;
    words[0] = left >= 64 ? ~uint64_t{0} : (uint64_t{1} << left) - 1;
    for (size_t b = 0; b < k; ++b) {
      const uint64_t r = right[b][w];
      const size_t half = size_t{1} << b;
      for (size_t m = 0; m < half; ++m) {
        words[m + half] = words[m] & r;
        words[m] &= ~r;
      }
    }
    for (size_t cell = 0; cell < num_cells; ++cell) {
      const uint64_t x = words[cell];
      if (x == 0) continue;
      uint32_t* t = tallies + cell * slots;
      t[0] += static_cast<uint32_t>(__builtin_popcountll(x));
      for (size_t g = 0; g < num_groups; ++g) {
        const uint64_t in_group = x & groups[g][w];
        t[1 + g] += static_cast<uint32_t>(__builtin_popcountll(in_group));
      }
    }
  }
}

void TallyRootCellsScalar(const uint64_t* const* right, size_t k,
                          const uint64_t* const* groups, size_t num_groups,
                          size_t n, uint64_t* words, uint32_t* tallies) {
  TallyRootCellsBody(right, k, groups, num_groups, n, words, tallies);
}

#if SDADCS_SPLIT_KERNEL_X86

// RightOfCutScalar on AVX2, 64 values per output word; the tail runs
// scalar.
__attribute__((target("avx2"))) void RightOfCutAvx2(const double* values,
                                                    size_t n, double cut,
                                                    uint64_t* words) {
  const __m256d c = _mm256_set1_pd(cut);
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    uint64_t word = 0;
    for (size_t j = 0; j < 16; ++j) {
      const __m256d v = _mm256_loadu_pd(values + i + 4 * j);
      word |= static_cast<uint64_t>(_mm256_movemask_pd(
                  _mm256_cmp_pd(v, c, _CMP_GT_OQ)))
              << (4 * j);
    }
    words[i / 64] = word;
  }
  RightOfCutScalar(values + i, n - i, cut, words + i / 64);
}

// TallyRootCellsScalar with the popcount instruction.
__attribute__((target("popcnt"))) void TallyRootCellsPopcnt(
    const uint64_t* const* right, size_t k, const uint64_t* const* groups,
    size_t num_groups, size_t n, uint64_t* words, uint32_t* tallies) {
  TallyRootCellsBody(right, k, groups, num_groups, n, words, tallies);
}

#endif  // SDADCS_SPLIT_KERNEL_X86

// RightOfCutScalar and TallyRootCellsScalar, on the vector path when
// `simd` asks for it and the host has AVX2.
void RightOfCut(const double* values, size_t n, double cut, uint64_t* words,
                bool simd) {
#if SDADCS_SPLIT_KERNEL_X86
  if (simd && data::Avx2Supported()) {
    RightOfCutAvx2(values, n, cut, words);
    return;
  }
#endif
  RightOfCutScalar(values, n, cut, words);
}

void TallyRootCells(const uint64_t* const* right, size_t k,
                    const uint64_t* const* groups, size_t num_groups,
                    size_t n, uint64_t* words, uint32_t* tallies,
                    bool simd) {
#if SDADCS_SPLIT_KERNEL_X86
  if (simd && data::Avx2Supported()) {
    TallyRootCellsPopcnt(right, k, groups, num_groups, n, words, tallies);
    return;
  }
#endif
  TallyRootCellsScalar(right, k, groups, num_groups, n, words, tallies);
}

// The cells of a split of `space` at `cuts` along `axes`, in mask
// order, with their bounds set (the right half (m, hi] of axes[b] where
// bit b of the mask is set, the left half (lo, m] where it is clear)
// and their sizes and counts left for the kernel to fill.
SplitResult SplitCells(const Space& space, const std::vector<double>& cuts,
                       const std::vector<int>& axes) {
  SplitResult out;
  const size_t num_cells = size_t{1} << axes.size();
  out.cells.resize(num_cells);
  out.sizes.resize(num_cells);
  out.counts.resize(num_cells);
  for (size_t mask = 0; mask < num_cells; ++mask) {
    std::vector<AxisBound>& bounds = out.cells[mask].bounds;
    bounds = space.bounds;
    for (size_t bit = 0; bit < axes.size(); ++bit) {
      const int axis = axes[bit];
      if (mask & (size_t{1} << bit)) {
        bounds[axis].lo = cuts[axis];
      } else {
        bounds[axis].hi = cuts[axis];
      }
    }
  }
  out.axes = axes;
  return out;
}

}  // namespace

SplitResult SplitAndCount(const data::Dataset& db, const data::GroupInfo& gi,
                          const Space& space, const std::vector<double>& cuts,
                          SplitScratch* scratch, bool simd) {
  SDADCS_CHECK(cuts.size() == space.bounds.size());
  const std::vector<int> splittable = SplittableAxes(cuts);
  if (splittable.empty()) return {};

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
  const int16_t* groups = gi.group_codes();
  const uint32_t* rows = space.rows.rows().data();
  const size_t n = space.rows.size();
  const bool vectorized =
      SDADCS_SPLIT_KERNEL_X86 && simd && data::Avx2Supported();
  scratch->cell_sizes.assign(num_cells, 0);
  scratch->counts.assign(num_cells * num_groups, 0.0);
  // Slot 0 of each cell's tallies takes rows outside every group.
  const size_t slots_per_cell = num_groups + 1;
  if (vectorized) {
    // The filter kernels size row_ids too, so each buffer is checked.
    for (std::vector<uint32_t>* buffer :
         {&scratch->row_ids, &scratch->row_cells}) {
      if (buffer->size() < n + 1) buffer->resize(n + 1);
    }
  } else {
    scratch->row_ids.clear();
    scratch->row_cells.clear();
    scratch->row_ids.reserve(n);
    scratch->row_cells.reserve(n);
  }
  LaneTallies tallies(&scratch->tallies, vectorized ? 4 : 0,
                      vectorized ? num_cells * slots_per_cell : 0);
  size_t kept = 0;
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
          kept += Pass1Avx2(rows + b, e - b, row_base, axes, k, groups,
                            slots_per_cell, scratch->row_ids.data() + kept,
                            scratch->row_cells.data() + kept, tallies);
          return;
        }
#endif
        Pass1Scalar(rows + b, e - b, row_base, axes, k, groups, num_groups,
                    scratch);
      });
  if (vectorized) {
    for (size_t cell = 0; cell < num_cells; ++cell) {
      uint64_t size = 0;
      for (size_t slot = 0; slot < slots_per_cell; ++slot) {
        const uint64_t c = tallies.Sum(cell * slots_per_cell + slot);
        size += c;
        if (slot > 0) {
          scratch->counts[cell * num_groups + slot - 1] =
              static_cast<double>(c);
        }
      }
      scratch->cell_sizes[cell] = static_cast<uint32_t>(size);
    }
  } else {
    kept = scratch->row_ids.size();
  }

  // Pass 2 — materialize the cells in mask order. Each cell's row vector
  // is allocated at its exact size and filled through a raw write
  // pointer; scattering rows in selection order keeps it sorted.
  SplitResult out = SplitCells(space, cuts, splittable);
  std::vector<std::vector<uint32_t>> cell_rows(num_cells);
  std::vector<uint32_t*> cell_end(num_cells);
  for (size_t mask = 0; mask < num_cells; ++mask) {
    out.sizes[mask] = scratch->cell_sizes[mask];
    cell_rows[mask].resize(scratch->cell_sizes[mask]);
    cell_end[mask] = cell_rows[mask].data();
    out.counts[mask].counts.assign(
        scratch->counts.begin() + mask * num_groups,
        scratch->counts.begin() + (mask + 1) * num_groups);
  }
  const uint32_t* kept_rows = scratch->row_ids.data();
  const uint32_t* kept_cells = scratch->row_cells.data();
  for (size_t i = 0; i < kept; ++i) {
    *cell_end[kept_cells[i]]++ = kept_rows[i];
  }
  for (size_t mask = 0; mask < num_cells; ++mask) {
    out.cells[mask].rows = data::Selection(std::move(cell_rows[mask]));
  }
  return out;
}

std::vector<std::vector<uint64_t>> GroupBits(const data::GroupInfo& gi,
                                             const data::Selection& rows) {
  std::vector<std::vector<uint64_t>> bits(
      static_cast<size_t>(gi.num_groups()),
      std::vector<uint64_t>((rows.size() + 63) / 64, 0));
  const int16_t* codes = gi.group_codes();
  for (size_t i = 0; i < rows.size(); ++i) {
    const int16_t g = codes[rows[i]];
    if (g >= 0) {
      bits[static_cast<size_t>(g)][i / 64] |= uint64_t{1} << (i % 64);
    }
  }
  return bits;
}

RootAxis CutRootAxis(const data::Dataset& db, const data::Selection& rows,
                     const AxisBound& bound, SplitKind kind,
                     SplitScratch* scratch, bool simd) {
  size_t n;
  RootAxis axis;
  axis.cut = PartitionCut(db, rows, bound, kind, &scratch->values,
                          &scratch->select, simd, &n);
  // No root row misses a value, so value i is root row i's.
  SDADCS_CHECK(n == rows.size());
  if (std::isnan(axis.cut)) return axis;
  axis.right.assign((n + 63) / 64, 0);
  RightOfCut(scratch->values.data(), n, axis.cut, axis.right.data(), simd);
  return axis;
}

SplitResult SplitRoot(const Space& root, const RootBits& bits,
                      SplitScratch* scratch, bool simd) {
  std::vector<double> cuts;
  cuts.reserve(root.bounds.size());
  for (const AxisBound& b : root.bounds) {
    cuts.push_back(bits.axes.at(b.attr)->cut);
  }
  const std::vector<int> splittable = SplittableAxes(cuts);
  if (splittable.empty()) return {};
  SplitResult out = SplitCells(root, cuts, splittable);

  const size_t k = splittable.size();
  const size_t num_cells = size_t{1} << k;
  const std::vector<std::vector<uint64_t>>& group_bits = *bits.groups;
  const size_t num_groups = group_bits.size();
  const uint64_t* right[kMaxSplitAxes];
  for (size_t b = 0; b < k; ++b) {
    right[b] = bits.axes.at(root.bounds[splittable[b]].attr)->right.data();
  }
  std::vector<const uint64_t*> groups;
  groups.reserve(num_groups);
  for (const std::vector<uint64_t>& g : group_bits) groups.push_back(g.data());
  const size_t slots = num_groups + 1;
  scratch->cell_words.resize(num_cells);
  scratch->tallies.assign(num_cells * slots, 0);
  TallyRootCells(right, k, groups.data(), num_groups, root.rows.size(),
                 scratch->cell_words.data(), scratch->tallies.data(), simd);
  for (size_t mask = 0; mask < num_cells; ++mask) {
    const uint32_t* t = scratch->tallies.data() + mask * slots;
    out.sizes[mask] = t[0];
    out.counts[mask].counts.assign(num_groups, 0.0);
    for (size_t g = 0; g < num_groups; ++g) {
      out.counts[mask].counts[g] = static_cast<double>(t[1 + g]);
    }
  }
  return out;
}

data::Selection RootCellRows(const Space& root, const RootBits& bits,
                             const SplitResult& split, size_t cell) {
  const size_t k = split.axes.size();
  const uint64_t* right[kMaxSplitAxes];
  uint64_t flip[kMaxSplitAxes];
  for (size_t b = 0; b < k; ++b) {
    right[b] = bits.axes.at(root.bounds[split.axes[b]].attr)->right.data();
    flip[b] = (cell >> b) & 1 ? 0 : ~uint64_t{0};
  }
  std::vector<uint32_t> rows(split.sizes[cell]);
  uint32_t* out = rows.data();
  const uint32_t* ids = root.rows.rows().data();
  const size_t n = root.rows.size();
  for (size_t w = 0; w * 64 < n; ++w) {
    const size_t left = n - w * 64;
    uint64_t x = left >= 64 ? ~uint64_t{0} : (uint64_t{1} << left) - 1;
    for (size_t b = 0; b < k; ++b) x &= right[b][w] ^ flip[b];
    const uint32_t* word_ids = ids + w * 64;
    for (; x != 0; x &= x - 1) *out++ = word_ids[std::countr_zero(x)];
  }
  return data::Selection(std::move(rows));
}

}  // namespace sdadcs::core
