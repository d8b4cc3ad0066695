#include "core/match_kernel.h"

#include <cmath>
#include <cstdint>

#include "data/chunks.h"
#include "data/simd_select.h"

#if defined(__x86_64__) || defined(__i386__)
#include "data/avx2_gather.h"
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
      __m256d x0 = data::GatherPd(v.values, idx_lo);
      __m256d x1 = data::GatherPd(v.values, idx_hi);
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

// The branch-free commit of one vector lane: the row is always written
// at `w`, and `w` and the lane's tally of the row's group advance by
// `hit` (0 or 1). Survivors land in lane order, which is selection
// order.
inline size_t CommitLane(uint32_t r, uint32_t hit, const int16_t* groups,
                         uint32_t* lane_tally, uint32_t* out, size_t w) {
  out[w] = r;
  lane_tally[static_cast<size_t>(groups[r] + 1)] += hit;
  return w + hit;
}

// Per-group tally of span rows matching the whole itemset, 8 rows per
// step into the 8 lanes' tallies.
__attribute__((target("avx2"))) void CountMatchesSpanAvx2(
    const std::vector<ItemView>& views, uint32_t row_base,
    const int16_t* groups, const uint32_t* rs, size_t n,
    const LaneTallies& tallies) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint32_t bits = MatchBits8(views, rs, i, row_base);
    for (uint32_t lane = 0; lane < 8; ++lane) {
      tallies.lane(lane)[static_cast<size_t>(groups[rs[i + lane]] + 1)] +=
          (bits >> lane) & 1u;
    }
  }
  for (; i < n; ++i) {
    uint32_t r = rs[i];
    if (MatchAll(views, r - row_base)) {
      ++tallies.lane(0)[static_cast<size_t>(groups[r] + 1)];
    }
  }
}

// 8 rows per step over one span: gather the chunk-local codes, compare
// against the target, commit every lane into `out`. Returns the number
// of rows kept.
__attribute__((target("avx2"))) size_t FilterCountCatSpanAvx2(
    const int32_t* codes, uint32_t row_base, int32_t code,
    const int16_t* groups, const uint32_t* rs, size_t n, uint32_t* out,
    const LaneTallies& tallies) {
  const __m256i target = _mm256_set1_epi32(code);
  const __m256i base = _mm256_set1_epi32(static_cast<int32_t>(row_base));
  size_t w = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i idx = _mm256_sub_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rs + i)), base);
    __m256i c = _mm256_i32gather_epi32(codes, idx, 4);
    uint32_t mask = static_cast<uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(c, target))));
    for (uint32_t lane = 0; lane < 8; ++lane) {
      w = CommitLane(rs[i + lane], (mask >> lane) & 1u, groups,
                     tallies.lane(lane), out, w);
    }
  }
  for (; i < n; ++i) {
    uint32_t r = rs[i];
    w = CommitLane(r, codes[r - row_base] == code ? 1u : 0u, groups,
                   tallies.lane(0), out, w);
  }
  return w;
}

// 4 rows per step over one span: gather the chunk-local values, test
// lo < v <= hi (ordered compares, so NaN rejects like the scalar path),
// commit every lane into `out`. Returns the number of rows kept.
__attribute__((target("avx2"))) size_t FilterCountIntervalSpanAvx2(
    const double* values, uint32_t row_base, double lo, double hi,
    const int16_t* groups, const uint32_t* rs, size_t n, uint32_t* out,
    const LaneTallies& tallies) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  const __m128i base = _mm_set1_epi32(static_cast<int32_t>(row_base));
  size_t w = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i idx = _mm_sub_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rs + i)), base);
    __m256d v = data::GatherPd(values, idx);
    __m256d inside = _mm256_and_pd(_mm256_cmp_pd(v, vlo, _CMP_GT_OQ),
                                   _mm256_cmp_pd(v, vhi, _CMP_LE_OQ));
    uint32_t mask = static_cast<uint32_t>(_mm256_movemask_pd(inside));
    for (uint32_t lane = 0; lane < 4; ++lane) {
      w = CommitLane(rs[i + lane], (mask >> lane) & 1u, groups,
                     tallies.lane(lane), out, w);
    }
  }
  for (; i < n; ++i) {
    uint32_t r = rs[i];
    double v = values[r - row_base];
    w = CommitLane(r, v > lo && v <= hi ? 1u : 0u, groups, tallies.lane(0),
                   out, w);
  }
  return w;
}

// 4 rows per step over one span: AND the self-ordered (non-NaN) masks
// of every axis chunk, commit every lane into `out`. Returns the number
// of rows kept.
__attribute__((target("avx2"))) size_t FilterAllPresentSpanAvx2(
    const std::vector<const double*>& cols, uint32_t row_base,
    const int16_t* groups, const uint32_t* rs, size_t n, uint32_t* out,
    const LaneTallies& tallies) {
  const __m256d all_ones = _mm256_castsi256_pd(_mm256_set1_epi32(-1));
  const __m128i base = _mm_set1_epi32(static_cast<int32_t>(row_base));
  size_t w = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i idx = _mm_sub_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rs + i)), base);
    __m256d present = all_ones;
    for (const double* col : cols) {
      __m256d v = data::GatherPd(col, idx);
      present = _mm256_and_pd(present, _mm256_cmp_pd(v, v, _CMP_ORD_Q));
    }
    uint32_t mask = static_cast<uint32_t>(_mm256_movemask_pd(present));
    for (uint32_t lane = 0; lane < 4; ++lane) {
      w = CommitLane(rs[i + lane], (mask >> lane) & 1u, groups,
                     tallies.lane(lane), out, w);
    }
  }
  for (; i < n; ++i) {
    uint32_t r = rs[i];
    uint32_t local = r - row_base;
    uint32_t present = 1;
    for (const double* col : cols) {
      double v = col[local];
      present &= v == v ? 1u : 0u;
    }
    w = CommitLane(r, present, groups, tallies.lane(0), out, w);
  }
  return w;
}

// Lanes of the widest vector step.
constexpr size_t kMaxLanes = 8;

// Sizes the scratch compaction buffer for `n` rows (a lane writes at or
// before its own row's position, so no slack is needed) and zeroes the
// lane tallies of `num_groups` groups.
LaneTallies PrepareFilter(size_t n, size_t num_groups, SplitScratch* scratch) {
  if (scratch->row_ids.size() < n) scratch->row_ids.resize(n);
  return LaneTallies(&scratch->tallies, kMaxLanes, num_groups + 1);
}

// Writes the lanes' group tallies into `gc` (slot 0, rows outside every
// group, is dropped).
void FoldTallies(const LaneTallies& tallies, size_t num_groups,
                 GroupCounts* gc) {
  gc->counts.resize(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    gc->counts[g] = static_cast<double>(tallies.Sum(g + 1));
  }
}

#endif  // SDADCS_MATCH_KERNEL_X86

}  // namespace

GroupCounts CountMatchesKernel(const data::Dataset& db,
                               const data::GroupInfo& gi,
                               const Itemset& itemset,
                               const data::Selection& sel,
                               SplitScratch* scratch, bool simd) {
#if defined(SDADCS_MATCH_KERNEL_X86)
  if (simd && data::Avx2Supported()) {
    const size_t num_groups = static_cast<size_t>(gi.num_groups());
    LaneTallies tallies(&scratch->tallies, kMaxLanes, num_groups + 1);
    const std::vector<ItemSpec> specs = SpecsOf(itemset);
    const int16_t* groups = gi.group_codes();
    data::ColumnChunks chunks = db.chunks();
    const uint32_t* rs = sel.rows().data();
    std::vector<data::PinnedChunk> pins;
    std::vector<ItemView> views;
    data::ForEachChunkSpan(
        chunks.layout(), rs, sel.size(),
        [&](uint32_t chunk, size_t b, size_t e) {
          PinViews(chunks, specs, chunk, &pins, &views);
          CountMatchesSpanAvx2(views, chunks.layout().begin(chunk), groups,
                               rs + b, e - b, tallies);
        });
    GroupCounts gc;
    FoldTallies(tallies, num_groups, &gc);
    return gc;
  }
#endif
  // Scalar oracle: per-row Itemset::Matches through the column
  // accessors (which route through the chunk store on a paged dataset).
  (void)scratch;
  return CountMatches(db, gi, itemset, sel);
}

data::Selection FilterCountItemKernel(const data::Dataset& db,
                                      const data::GroupInfo& gi,
                                      const Item& item,
                                      const data::Selection& sel,
                                      GroupCounts* gc, SplitScratch* scratch,
                                      bool simd) {
#if defined(SDADCS_MATCH_KERNEL_X86)
  if (simd && data::Avx2Supported()) {
    const size_t num_groups = static_cast<size_t>(gi.num_groups());
    LaneTallies tallies = PrepareFilter(sel.size(), num_groups, scratch);
    const int16_t* groups = gi.group_codes();
    data::ColumnChunks chunks = db.chunks();
    const uint32_t* rs = sel.rows().data();
    uint32_t* out = scratch->row_ids.data();
    size_t kept = 0;
    data::ForEachChunkSpan(
        chunks.layout(), rs, sel.size(),
        [&](uint32_t chunk, size_t b, size_t e) {
          if (item.kind == Item::Kind::kCategorical) {
            data::PinnedChunk pin = chunks.Categorical(item.attr, chunk);
            kept += FilterCountCatSpanAvx2(pin.codes(), pin.row_base(),
                                           item.code, groups, rs + b, e - b,
                                           out + kept, tallies);
          } else {
            data::PinnedChunk pin = chunks.Continuous(item.attr, chunk);
            kept += FilterCountIntervalSpanAvx2(
                pin.values(), pin.row_base(), item.lo, item.hi, groups,
                rs + b, e - b, out + kept, tallies);
          }
        });
    FoldTallies(tallies, num_groups, gc);
    return data::Selection(std::vector<uint32_t>(out, out + kept));
  }
#endif
  (void)scratch;
  return FilterCountGroups(
      gi, sel, [&](uint32_t r) { return item.Matches(db, r); }, gc);
}

data::Selection FilterAllPresentKernel(const data::Dataset& db,
                                       const data::GroupInfo& gi,
                                       const std::vector<int>& cont_attrs,
                                       const data::Selection& sel,
                                       GroupCounts* gc,
                                       SplitScratch* scratch, bool simd) {
#if defined(SDADCS_MATCH_KERNEL_X86)
  if (simd && data::Avx2Supported()) {
    const size_t num_groups = static_cast<size_t>(gi.num_groups());
    LaneTallies tallies = PrepareFilter(sel.size(), num_groups, scratch);
    const int16_t* groups = gi.group_codes();
    data::ColumnChunks chunks = db.chunks();
    const uint32_t* rs = sel.rows().data();
    uint32_t* out = scratch->row_ids.data();
    size_t kept = 0;
    std::vector<data::PinnedChunk> pins(cont_attrs.size());
    std::vector<const double*> cols(cont_attrs.size());
    data::ForEachChunkSpan(
        chunks.layout(), rs, sel.size(),
        [&](uint32_t chunk, size_t b, size_t e) {
          for (size_t a = 0; a < cont_attrs.size(); ++a) {
            pins[a] = chunks.Continuous(cont_attrs[a], chunk);
            cols[a] = pins[a].values();
          }
          kept += FilterAllPresentSpanAvx2(cols, chunks.layout().begin(chunk),
                                           groups, rs + b, e - b, out + kept,
                                           tallies);
        });
    FoldTallies(tallies, num_groups, gc);
    return data::Selection(std::vector<uint32_t>(out, out + kept));
  }
#endif
  (void)scratch;
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

}  // namespace sdadcs::core
