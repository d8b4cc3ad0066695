#include "core/match_kernel.h"

#include <cmath>
#include <cstdint>

#include "data/chunks.h"
#include "data/simd_select.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SDADCS_MATCH_KERNEL_X86 1
#endif

namespace sdadcs::core {

namespace {

#if defined(SDADCS_MATCH_KERNEL_X86)

// Chunk-independent description of one item: which column, which
// predicate. Resolved once per scan; the chunk loop turns each spec into
// an ItemView against the current chunk's pinned buffer.
struct ItemSpec {
  bool categorical = false;
  int attr = 0;
  int32_t code = 0;
  double lo = 0.0;
  double hi = 0.0;
};

std::vector<ItemSpec> SpecsOf(const Itemset& is) {
  std::vector<ItemSpec> specs;
  specs.reserve(is.size());
  for (const Item& it : is.items()) {
    ItemSpec s;
    if (it.kind == Item::Kind::kCategorical) {
      s.categorical = true;
      s.attr = it.attr;
      s.code = it.code;
    } else {
      s.attr = it.attr;
      s.lo = it.lo;
      s.hi = it.hi;
    }
    specs.push_back(s);
  }
  return specs;
}

// Raw-pointer view of one item against one pinned chunk: the buffer
// pointer and the kind branch are resolved once per span instead of once
// per row. Indexed by *chunk-local* row (global row - row_base).
struct ItemView {
  const int32_t* codes = nullptr;  // set for categorical items
  int32_t code = 0;
  const double* values = nullptr;  // set for interval items
  double lo = 0.0;
  double hi = 0.0;

  bool Match(uint32_t local) const {
    if (codes != nullptr) {
      return codes[local] == code;  // kMissingCode never equals a value code
    }
    double v = values[local];
    return v > lo && v <= hi;  // NaN fails both: missing never matches
  }
};

// Pins the given chunk of every spec's column and builds the per-chunk
// views. The pins vector owns the residency for the span scan.
void PinViews(const data::ColumnChunks& chunks,
              const std::vector<ItemSpec>& specs, uint32_t chunk,
              std::vector<data::PinnedChunk>* pins,
              std::vector<ItemView>* views) {
  pins->clear();
  views->clear();
  for (const ItemSpec& s : specs) {
    data::PinnedChunk pin = s.categorical
                                ? chunks.Categorical(s.attr, chunk)
                                : chunks.Continuous(s.attr, chunk);
    ItemView v;
    if (s.categorical) {
      v.codes = pin.codes();
      v.code = s.code;
    } else {
      v.values = pin.values();
      v.lo = s.lo;
      v.hi = s.hi;
    }
    views->push_back(v);
    pins->push_back(std::move(pin));
  }
}

// Items short-circuit in itemset order, exactly like Itemset::Matches.
bool MatchAll(const std::vector<ItemView>& views, uint32_t local) {
  for (const ItemView& v : views) {
    if (!v.Match(local)) return false;
  }
  return true;
}

// 8-bit mask of which of rs[i..i+8) match every item in `views`: the
// global row ids are rebased to the chunk before gathering (so no
// pointer is ever biased outside its chunk buffer), then categorical
// items gather 8 codes at once and interval items gather two 4-wide
// double halves. Ordered compares reject NaN exactly like the scalar
// path, and the running AND gives the same early-out the scalar
// short-circuit has (just at 8-row granularity).
__attribute__((target("avx2"))) inline uint32_t MatchBits8(
    const std::vector<ItemView>& views, const uint32_t* rs, size_t i,
    uint32_t row_base) {
  __m256i idx = _mm256_sub_epi32(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rs + i)),
      _mm256_set1_epi32(static_cast<int32_t>(row_base)));
  __m128i idx_lo = _mm256_castsi256_si128(idx);
  __m128i idx_hi = _mm256_extracti128_si256(idx, 1);
  uint32_t bits = 0xffu;
  for (const ItemView& v : views) {
    if (v.codes != nullptr) {
      __m256i c = _mm256_i32gather_epi32(v.codes, idx, 4);
      bits &= static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(
          _mm256_cmpeq_epi32(c, _mm256_set1_epi32(v.code)))));
    } else {
      const __m256d vlo = _mm256_set1_pd(v.lo);
      const __m256d vhi = _mm256_set1_pd(v.hi);
      __m256d x0 = _mm256_i32gather_pd(v.values, idx_lo, 8);
      __m256d x1 = _mm256_i32gather_pd(v.values, idx_hi, 8);
      __m256d in0 = _mm256_and_pd(_mm256_cmp_pd(x0, vlo, _CMP_GT_OQ),
                                  _mm256_cmp_pd(x0, vhi, _CMP_LE_OQ));
      __m256d in1 = _mm256_and_pd(_mm256_cmp_pd(x1, vlo, _CMP_GT_OQ),
                                  _mm256_cmp_pd(x1, vhi, _CMP_LE_OQ));
      bits &= static_cast<uint32_t>(_mm256_movemask_pd(in0)) |
              (static_cast<uint32_t>(_mm256_movemask_pd(in1)) << 4);
    }
    if (bits == 0) break;
  }
  return bits;
}

// Per-group tally of span rows matching the whole itemset. Counting adds
// exact 1.0 increments, so lane order cannot affect the totals.
__attribute__((target("avx2"))) void CountMatchesSpanAvx2(
    const std::vector<ItemView>& views, uint32_t row_base,
    const int16_t* groups, const uint32_t* rs, size_t n, double* counts) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint32_t bits = MatchBits8(views, rs, i, row_base);
    while (bits != 0) {
      int lane = __builtin_ctz(bits);
      bits &= bits - 1;
      int16_t g = groups[rs[i + static_cast<size_t>(lane)]];
      if (g >= 0) counts[g] += 1.0;
    }
  }
  for (; i < n; ++i) {
    uint32_t r = rs[i];
    int16_t g = groups[r];
    if (g < 0) continue;
    if (MatchAll(views, r - row_base)) counts[g] += 1.0;
  }
}

// 2x2 contingency of parts a/b within one group over one span, 8 rows
// per iteration: the group mask gates the (much costlier) item gathers,
// and the four cells fall out of popcounts over the three masks.
// Accumulates into cnt[4] so per-span partials sum across the chunk
// loop.
__attribute__((target("avx2"))) void CountPartsSpanAvx2(
    const std::vector<ItemView>& va, const std::vector<ItemView>& vb,
    uint32_t row_base, const int16_t* groups, int group, const uint32_t* rs,
    size_t n, uint64_t cnt[4]) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint32_t mg = 0;
    for (uint32_t lane = 0; lane < 8; ++lane) {
      mg |= (groups[rs[i + lane]] == group ? 1u : 0u) << lane;
    }
    if (mg == 0) continue;
    uint32_t ma = MatchBits8(va, rs, i, row_base);
    uint32_t mb = MatchBits8(vb, rs, i, row_base);
    cnt[3] += static_cast<uint64_t>(__builtin_popcount(ma & mb & mg));
    cnt[2] += static_cast<uint64_t>(__builtin_popcount(ma & ~mb & mg));
    cnt[1] += static_cast<uint64_t>(__builtin_popcount(~ma & mb & mg));
    cnt[0] += static_cast<uint64_t>(__builtin_popcount(~ma & ~mb & mg));
  }
  for (; i < n; ++i) {
    uint32_t r = rs[i];
    if (groups[r] != group) continue;
    unsigned ma = MatchAll(va, r - row_base) ? 1u : 0u;
    unsigned mb = MatchAll(vb, r - row_base) ? 1u : 0u;
    ++cnt[(ma << 1) | mb];
  }
}

// 8 rows per iteration over one span: gather the chunk-local codes,
// compare against the target, commit surviving lanes in ascending lane
// order (= selection order) appending to `out`.
__attribute__((target("avx2"))) void FilterCountCatSpanAvx2(
    const int32_t* codes, uint32_t row_base, int32_t code,
    const int16_t* groups, const uint32_t* rs, size_t n,
    std::vector<uint32_t>* out, double* counts) {
  const __m256i target = _mm256_set1_epi32(code);
  const __m256i base = _mm256_set1_epi32(static_cast<int32_t>(row_base));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i idx = _mm256_sub_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rs + i)), base);
    __m256i c = _mm256_i32gather_epi32(codes, idx, 4);
    int mask = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(c, target)));
    while (mask != 0) {
      int lane = __builtin_ctz(static_cast<unsigned>(mask));
      mask &= mask - 1;
      uint32_t r = rs[i + static_cast<size_t>(lane)];
      out->push_back(r);
      int16_t g = groups[r];
      if (g >= 0) counts[g] += 1.0;
    }
  }
  for (; i < n; ++i) {
    uint32_t r = rs[i];
    if (codes[r - row_base] != code) continue;
    out->push_back(r);
    int16_t g = groups[r];
    if (g >= 0) counts[g] += 1.0;
  }
}

// 4 rows per iteration over one span: gather the chunk-local values,
// test lo < v <= hi (ordered compares, so NaN rejects like the scalar
// path), commit in lane order appending to `out`.
__attribute__((target("avx2"))) void FilterCountIntervalSpanAvx2(
    const double* values, uint32_t row_base, double lo, double hi,
    const int16_t* groups, const uint32_t* rs, size_t n,
    std::vector<uint32_t>* out, double* counts) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  const __m128i base = _mm_set1_epi32(static_cast<int32_t>(row_base));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i idx = _mm_sub_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rs + i)), base);
    __m256d v = _mm256_i32gather_pd(values, idx, 8);
    __m256d inside = _mm256_and_pd(_mm256_cmp_pd(v, vlo, _CMP_GT_OQ),
                                   _mm256_cmp_pd(v, vhi, _CMP_LE_OQ));
    int mask = _mm256_movemask_pd(inside);
    while (mask != 0) {
      int lane = __builtin_ctz(static_cast<unsigned>(mask));
      mask &= mask - 1;
      uint32_t r = rs[i + static_cast<size_t>(lane)];
      out->push_back(r);
      int16_t g = groups[r];
      if (g >= 0) counts[g] += 1.0;
    }
  }
  for (; i < n; ++i) {
    uint32_t r = rs[i];
    double v = values[r - row_base];
    if (!(v > lo && v <= hi)) continue;
    out->push_back(r);
    int16_t g = groups[r];
    if (g >= 0) counts[g] += 1.0;
  }
}

// 4 rows per iteration over one span: AND the self-ordered (non-NaN)
// masks of every axis chunk. Most rows are fully present, so the commit
// loop usually takes all four lanes.
__attribute__((target("avx2"))) void FilterAllPresentSpanAvx2(
    const std::vector<const double*>& cols, uint32_t row_base,
    const int16_t* groups, const uint32_t* rs, size_t n,
    std::vector<uint32_t>* out, double* counts) {
  const __m256d all_ones = _mm256_castsi256_pd(_mm256_set1_epi32(-1));
  const __m128i base = _mm_set1_epi32(static_cast<int32_t>(row_base));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i idx = _mm_sub_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rs + i)), base);
    __m256d present = all_ones;
    for (const double* col : cols) {
      __m256d v = _mm256_i32gather_pd(col, idx, 8);
      present = _mm256_and_pd(present, _mm256_cmp_pd(v, v, _CMP_ORD_Q));
    }
    int mask = _mm256_movemask_pd(present);
    while (mask != 0) {
      int lane = __builtin_ctz(static_cast<unsigned>(mask));
      mask &= mask - 1;
      uint32_t r = rs[i + static_cast<size_t>(lane)];
      out->push_back(r);
      int16_t g = groups[r];
      if (g >= 0) counts[g] += 1.0;
    }
  }
  for (; i < n; ++i) {
    uint32_t r = rs[i];
    uint32_t local = r - row_base;
    bool present = true;
    for (const double* col : cols) {
      double v = col[local];
      if (v != v) {
        present = false;
        break;
      }
    }
    if (!present) continue;
    out->push_back(r);
    int16_t g = groups[r];
    if (g >= 0) counts[g] += 1.0;
  }
}

#endif  // SDADCS_MATCH_KERNEL_X86

}  // namespace

GroupCounts CountMatchesKernel(const data::Dataset& db,
                               const data::GroupInfo& gi,
                               const Itemset& itemset,
                               const data::Selection& sel,
                               bool simd) {
#if defined(SDADCS_MATCH_KERNEL_X86)
  if (simd && data::Avx2Supported()) {
    GroupCounts gc;
    gc.counts.assign(gi.num_groups(), 0.0);
    const std::vector<ItemSpec> specs = SpecsOf(itemset);
    const int16_t* groups = gi.group_codes();
    double* counts = gc.counts.data();
    data::ColumnChunks chunks = db.chunks();
    const uint32_t* rs = sel.rows().data();
    std::vector<data::PinnedChunk> pins;
    std::vector<ItemView> views;
    data::ForEachChunkSpan(
        chunks.layout(), rs, sel.size(),
        [&](uint32_t chunk, size_t b, size_t e) {
          PinViews(chunks, specs, chunk, &pins, &views);
          CountMatchesSpanAvx2(views, chunks.layout().begin(chunk), groups,
                               rs + b, e - b, counts);
        });
    return gc;
  }
#endif
  // Scalar oracle: per-row Itemset::Matches through the column
  // accessors (which route through the chunk store on a paged dataset).
  return CountMatches(db, gi, itemset, sel);
}

data::Selection FilterCountItemKernel(const data::Dataset& db,
                                      const data::GroupInfo& gi,
                                      const Item& item,
                                      const data::Selection& sel,
                                      GroupCounts* gc, bool simd) {
#if defined(SDADCS_MATCH_KERNEL_X86)
  if (simd && data::Avx2Supported()) {
    gc->counts.assign(gi.num_groups(), 0.0);
    const int16_t* groups = gi.group_codes();
    double* counts = gc->counts.data();
    data::ColumnChunks chunks = db.chunks();
    const uint32_t* rs = sel.rows().data();
    std::vector<uint32_t> out;
    out.reserve(sel.size());
    data::ForEachChunkSpan(
        chunks.layout(), rs, sel.size(),
        [&](uint32_t chunk, size_t b, size_t e) {
          if (item.kind == Item::Kind::kCategorical) {
            data::PinnedChunk pin = chunks.Categorical(item.attr, chunk);
            FilterCountCatSpanAvx2(pin.codes(), pin.row_base(), item.code,
                                   groups, rs + b, e - b, &out, counts);
          } else {
            data::PinnedChunk pin = chunks.Continuous(item.attr, chunk);
            FilterCountIntervalSpanAvx2(pin.values(), pin.row_base(), item.lo,
                                        item.hi, groups, rs + b, e - b, &out,
                                        counts);
          }
        });
    return data::Selection(std::move(out));
  }
#endif
  return FilterCountGroups(
      gi, sel, [&](uint32_t r) { return item.Matches(db, r); }, gc);
}

data::Selection FilterAllPresentKernel(const data::Dataset& db,
                                       const data::GroupInfo& gi,
                                       const std::vector<int>& cont_attrs,
                                       const data::Selection& sel,
                                       GroupCounts* gc, bool simd) {
#if defined(SDADCS_MATCH_KERNEL_X86)
  if (simd && data::Avx2Supported()) {
    gc->counts.assign(gi.num_groups(), 0.0);
    const int16_t* groups = gi.group_codes();
    double* counts = gc->counts.data();
    data::ColumnChunks chunks = db.chunks();
    const uint32_t* rs = sel.rows().data();
    std::vector<uint32_t> out;
    out.reserve(sel.size());
    std::vector<data::PinnedChunk> pins(cont_attrs.size());
    std::vector<const double*> cols(cont_attrs.size());
    data::ForEachChunkSpan(
        chunks.layout(), rs, sel.size(),
        [&](uint32_t chunk, size_t b, size_t e) {
          for (size_t a = 0; a < cont_attrs.size(); ++a) {
            pins[a] = chunks.Continuous(cont_attrs[a], chunk);
            cols[a] = pins[a].values();
          }
          FilterAllPresentSpanAvx2(cols, chunks.layout().begin(chunk), groups,
                                   rs + b, e - b, &out, counts);
        });
    return data::Selection(std::move(out));
  }
#endif
  return FilterCountGroups(
      gi, sel,
      [&](uint32_t r) {
        for (int attr : cont_attrs) {
          if (db.continuous(attr).is_missing(r)) return false;
        }
        return true;
      },
      gc);
}

Contingency2x2 CountPartsInGroupKernel(const data::Dataset& db,
                                       const data::GroupInfo& gi,
                                       const Itemset& a, const Itemset& b,
                                       int group, const data::Selection& sel,
                                       bool simd) {
  Contingency2x2 t;
#if defined(SDADCS_MATCH_KERNEL_X86)
  if (simd && data::Avx2Supported()) {
    const std::vector<ItemSpec> sa = SpecsOf(a);
    const std::vector<ItemSpec> sb = SpecsOf(b);
    const int16_t* groups = gi.group_codes();
    data::ColumnChunks chunks = db.chunks();
    const uint32_t* rs = sel.rows().data();
    uint64_t cnt[4] = {0, 0, 0, 0};
    std::vector<data::PinnedChunk> pa, pb;
    std::vector<ItemView> va, vb;
    data::ForEachChunkSpan(
        chunks.layout(), rs, sel.size(),
        [&](uint32_t chunk, size_t beg, size_t end) {
          PinViews(chunks, sa, chunk, &pa, &va);
          PinViews(chunks, sb, chunk, &pb, &vb);
          CountPartsSpanAvx2(va, vb, chunks.layout().begin(chunk), groups,
                             group, rs + beg, end - beg, cnt);
        });
    t.n11 = static_cast<double>(cnt[3]);
    t.n10 = static_cast<double>(cnt[2]);
    t.n01 = static_cast<double>(cnt[1]);
    t.n00 = static_cast<double>(cnt[0]);
    return t;
  }
#endif
  for (uint32_t r : sel) {
    if (gi.group_of(r) != group) continue;
    bool ma = a.Matches(db, r);
    bool mb = b.Matches(db, r);
    if (ma && mb) {
      t.n11 += 1.0;
    } else if (ma) {
      t.n10 += 1.0;
    } else if (mb) {
      t.n01 += 1.0;
    } else {
      t.n00 += 1.0;
    }
  }
  return t;
}

}  // namespace sdadcs::core
