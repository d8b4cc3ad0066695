#include "data/simd_select.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include "data/avx2_gather.h"
#define SDADCS_SIMD_SELECT_X86 1
#endif

#include "util/logging.h"

namespace sdadcs::data {

bool Avx2Supported() {
#if defined(SDADCS_SIMD_SELECT_X86) && defined(__GNUC__)
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
#else
  return false;
#endif
}

bool SimdByDefault() {
  static const bool simd = [] {
    const char* e = std::getenv("SDADCS_KERNEL");
    const bool scalar = e != nullptr && std::strcmp(e, "scalar") == 0;
    return Avx2Supported() && !scalar;
  }();
  return simd;
}

namespace {

// Below this size a partition pass stops paying for itself; finish with
// the library introselect on the (now small, cache-resident) region.
constexpr size_t kScalarCutoff = 64;

double MedianOfThree(double a, double b, double c) {
  if (a > b) std::swap(a, b);
  if (b > c) std::swap(b, c);
  if (a > b) std::swap(a, b);
  return b;
}

#if defined(SDADCS_SIMD_SELECT_X86)

// For each 4-bit lane mask, the 8-lane float permutation that packs the
// selected doubles (each a float pair) to the front of the vector.
// Unselected lanes are garbage past the popcount; the stores below
// always write the full vector and rely on 4 lanes of buffer slack.
alignas(32) constexpr int32_t kCompress4[16][8] = {
    {0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7},
    {2, 3, 0, 1, 4, 5, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7},
    {4, 5, 0, 1, 2, 3, 6, 7}, {0, 1, 4, 5, 2, 3, 6, 7},
    {2, 3, 4, 5, 0, 1, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7},
    {6, 7, 0, 1, 2, 3, 4, 5}, {0, 1, 6, 7, 2, 3, 4, 5},
    {2, 3, 6, 7, 0, 1, 4, 5}, {0, 1, 2, 3, 6, 7, 4, 5},
    {4, 5, 6, 7, 0, 1, 2, 3}, {0, 1, 4, 5, 6, 7, 2, 3},
    {2, 3, 4, 5, 6, 7, 0, 1}, {0, 1, 2, 3, 4, 5, 6, 7},
};

// 3-way partition of src[0..n) around `pivot`: elements < pivot are
// compressed into lt[0..n_lt), elements > pivot into gt[0..n_gt),
// equals are dropped (their count is n - n_lt - n_gt). Both outputs
// need capacity n + 4 for the full-width stores. Returns {n_lt, n_gt}.
__attribute__((target("avx2"))) std::pair<size_t, size_t> PartitionAvx2(
    const double* src, size_t n, double pivot, double* lt, double* gt) {
  const __m256d pv = _mm256_set1_pd(pivot);
  size_t n_lt = 0;
  size_t n_gt = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d v = _mm256_loadu_pd(src + i);
    int m_lt = _mm256_movemask_pd(_mm256_cmp_pd(v, pv, _CMP_LT_OQ));
    int m_gt = _mm256_movemask_pd(_mm256_cmp_pd(v, pv, _CMP_GT_OQ));
    __m256 vf = _mm256_castpd_ps(v);
    __m256 packed_lt = _mm256_permutevar8x32_ps(
        vf,
        _mm256_load_si256(reinterpret_cast<const __m256i*>(kCompress4[m_lt])));
    _mm256_storeu_ps(reinterpret_cast<float*>(lt + n_lt), packed_lt);
    n_lt += static_cast<size_t>(__builtin_popcount(
        static_cast<unsigned>(m_lt)));
    __m256 packed_gt = _mm256_permutevar8x32_ps(
        vf,
        _mm256_load_si256(reinterpret_cast<const __m256i*>(kCompress4[m_gt])));
    _mm256_storeu_ps(reinterpret_cast<float*>(gt + n_gt), packed_gt);
    n_gt += static_cast<size_t>(__builtin_popcount(
        static_cast<unsigned>(m_gt)));
  }
  for (; i < n; ++i) {
    double v = src[i];
    if (v < pivot) {
      lt[n_lt++] = v;
    } else if (v > pivot) {
      gt[n_gt++] = v;
    }
  }
  return {n_lt, n_gt};
}

// Gather + NaN-compress + running max in one pass over one chunk span:
// indices are rebased to the chunk (rows[i] - row_base) before the
// gather. `dst` needs 4 lanes of slack past the survivor count. Returns
// the survivor count; *max_out is -inf when nothing survives.
__attribute__((target("avx2"))) size_t GatherNonNanMaxAvx2(
    const double* values, uint32_t row_base, const uint32_t* rows, size_t n,
    double* dst, double* max_out) {
  const __m256d neg_inf = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  const __m128i base = _mm_set1_epi32(static_cast<int32_t>(row_base));
  __m256d vmax = neg_inf;
  size_t cnt = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i idx = _mm_sub_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + i)), base);
    __m256d v = GatherPd(values, idx);
    __m256d ord = _mm256_cmp_pd(v, v, _CMP_ORD_Q);
    int mask = _mm256_movemask_pd(ord);
    __m256 packed = _mm256_permutevar8x32_ps(
        _mm256_castpd_ps(v),
        _mm256_load_si256(reinterpret_cast<const __m256i*>(kCompress4[mask])));
    _mm256_storeu_ps(reinterpret_cast<float*>(dst + cnt), packed);
    cnt += static_cast<size_t>(__builtin_popcount(
        static_cast<unsigned>(mask)));
    vmax = _mm256_max_pd(vmax, _mm256_blendv_pd(neg_inf, v, ord));
  }
  double mx = -std::numeric_limits<double>::infinity();
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, vmax);
  for (double l : lanes) mx = l > mx ? l : mx;
  for (; i < n; ++i) {
    double v = values[rows[i] - row_base];
    if (v == v) {  // not NaN
      dst[cnt++] = v;
      if (v > mx) mx = v;
    }
  }
  *max_out = mx;
  return cnt;
}

double SelectKthAvx2(const double* vals, size_t n, size_t k,
                     SelectScratch* scratch) {
  scratch->a.resize(n + 4);
  scratch->b.resize(n + 4);
  scratch->c.resize(n + 4);
  double* bufs[3] = {scratch->a.data(), scratch->b.data(),
                     scratch->c.data()};
  const double* cur = vals;  // the input is only ever a source
  int cur_idx = -1;
  size_t m = n;
  while (m > kScalarCutoff) {
    double pivot = MedianOfThree(cur[0], cur[m / 2], cur[m - 1]);
    // Pick the two scratch buffers not currently holding the source.
    int t0 = cur_idx == 0 ? 1 : 0;
    int t1 = cur_idx == 2 ? 1 : 2;
    auto [n_lt, n_gt] = PartitionAvx2(cur, m, pivot, bufs[t0], bufs[t1]);
    size_t n_eq = m - n_lt - n_gt;
    if (k < n_lt) {
      cur_idx = t0;
      m = n_lt;
    } else if (k < n_lt + n_eq) {
      // The pivot is an actual element (median of three), so the equal
      // band is never empty and every round strictly shrinks m.
      return pivot;
    } else {
      k -= n_lt + n_eq;
      cur_idx = t1;
      m = n_gt;
    }
    cur = bufs[cur_idx];
  }
  // A select that never partitioned finishes on a copy of its input.
  double* last = bufs[cur_idx < 0 ? 0 : cur_idx];
  if (cur_idx < 0) std::copy(vals, vals + m, last);
  std::nth_element(last, last + k, last + m);
  return last[k];
}

#endif  // SDADCS_SIMD_SELECT_X86

}  // namespace

double SelectKth(const double* vals, size_t n, size_t k, bool simd,
                 SelectScratch* scratch) {
  SDADCS_CHECK(k < n);
#if defined(SDADCS_SIMD_SELECT_X86)
  if (simd && Avx2Supported()) return SelectKthAvx2(vals, n, k, scratch);
#endif
  (void)simd;
  scratch->a.assign(vals, vals + n);
  std::nth_element(scratch->a.begin(), scratch->a.begin() + k,
                   scratch->a.end());
  return scratch->a[k];
}

size_t GatherNonNanMaxSpan(const double* values, uint32_t row_base,
                           const uint32_t* rows, size_t n, double* dst,
                           double* max_out, bool simd) {
#if defined(SDADCS_SIMD_SELECT_X86)
  if (simd && Avx2Supported()) {
    return GatherNonNanMaxAvx2(values, row_base, rows, n, dst, max_out);
  }
#endif
  (void)simd;
  size_t cnt = 0;
  double mx = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    double v = values[rows[i] - row_base];
    if (std::isnan(v)) continue;
    dst[cnt++] = v;
    if (v > mx) mx = v;
  }
  *max_out = mx;
  return cnt;
}

size_t GatherNonNanMax(const double* values, const uint32_t* rows, size_t n,
                       std::vector<double>* out, double* max_out, bool simd) {
  if (out->size() < n + 4) out->resize(n + 4);
  double mx;
  size_t cnt = GatherNonNanMaxSpan(values, /*row_base=*/0, rows, n,
                                   out->data(), &mx, simd);
  *max_out = cnt > 0 ? mx : std::numeric_limits<double>::quiet_NaN();
  return cnt;
}

}  // namespace sdadcs::data
