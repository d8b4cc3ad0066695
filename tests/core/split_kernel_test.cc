#include "core/split_kernel.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/match_kernel.h"
#include "core/sdad.h"
#include "core/space.h"
#include "core/support.h"
#include "data/dataset.h"
#include "data/group_info.h"
#include "data/order_stats.h"
#include "data/spill.h"
#include "util/random.h"

namespace sdadcs::core {
namespace {

// Seeded random mixed dataset: `axes` continuous attributes (with a
// `missing_rate` share of NaN rows per attribute) plus a categorical
// group attribute with `num_values` values.
data::Dataset MakeRandom(uint64_t seed, size_t rows, int axes,
                         int num_values, double missing_rate) {
  util::Rng rng(seed);
  data::DatasetBuilder b;
  std::vector<int> cont;
  for (int a = 0; a < axes; ++a) {
    std::string name = "x";
    name += std::to_string(a);
    cont.push_back(b.AddContinuous(name));
  }
  int grp = b.AddCategorical("grp");
  for (size_t r = 0; r < rows; ++r) {
    for (int a = 0; a < axes; ++a) {
      if (rng.NextDouble() < missing_rate) {
        b.AppendMissing(cont[a]);
      } else {
        b.AppendContinuous(cont[a], rng.Uniform(-10.0, 10.0));
      }
    }
    std::string value = "g";
    value += std::to_string(rng.NextBelow(static_cast<uint64_t>(num_values)));
    b.AppendCategorical(grp, value);
  }
  auto db = std::move(b).Build();
  EXPECT_TRUE(db.ok());
  return std::move(db).value();
}

// The seed hot path the fused kernel replaces: per-cell filter followed
// by a per-cell counting scan.
struct NaiveResult {
  std::vector<Space> cells;
  std::vector<GroupCounts> counts;
};

NaiveResult NaiveSplitAndCount(const data::Dataset& db,
                               const data::GroupInfo& gi, const Space& space,
                               const std::vector<double>& cuts) {
  NaiveResult out;
  out.cells = FindCombs(db, space, cuts);
  out.counts.reserve(out.cells.size());
  for (const Space& cell : out.cells) {
    out.counts.push_back(CountGroups(gi, cell.rows));
  }
  return out;
}

void ExpectIdentical(const SplitResult& fused, const NaiveResult& naive) {
  ASSERT_EQ(fused.cells.size(), naive.cells.size());
  ASSERT_EQ(fused.counts.size(), naive.counts.size());
  for (size_t c = 0; c < fused.cells.size(); ++c) {
    SCOPED_TRACE("cell " + std::to_string(c));
    const Space& fc = fused.cells[c];
    const Space& nc = naive.cells[c];
    ASSERT_EQ(fc.bounds.size(), nc.bounds.size());
    for (size_t a = 0; a < fc.bounds.size(); ++a) {
      EXPECT_EQ(fc.bounds[a].attr, nc.bounds[a].attr);
      EXPECT_EQ(fc.bounds[a].lo, nc.bounds[a].lo);
      EXPECT_EQ(fc.bounds[a].hi, nc.bounds[a].hi);
    }
    EXPECT_EQ(fc.rows.rows(), nc.rows.rows());
    EXPECT_EQ(fused.counts[c].counts, naive.counts[c].counts);
  }
}

Space RootSpace(const data::Dataset& db, const data::GroupInfo& gi,
                int axes) {
  Space space;
  for (int a = 0; a < axes; ++a) {
    RootBounds rb = ComputeRootBounds(db, a, gi.base_selection());
    space.bounds.push_back({a, rb.lo, rb.hi});
  }
  space.rows = gi.base_selection();
  return space;
}

// Fused kernel == naive FindCombs + CountGroups on random data, for
// several seeds, axis counts and missing-value rates — and recursively
// down a few levels so child cells (non-root bounds, shrinking
// selections) are exercised too.
TEST(SplitKernelTest, MatchesNaiveOnSeededRandomData) {
  for (uint64_t seed : {3u, 17u, 99u}) {
    for (int axes : {1, 2, 3}) {
      for (double missing : {0.0, 0.15}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " axes " +
                     std::to_string(axes) + " missing " +
                     std::to_string(missing));
        data::Dataset db = MakeRandom(seed, 400, axes, 3, missing);
        auto gi = data::GroupInfo::Create(db, axes);  // grp attr
        ASSERT_TRUE(gi.ok());

        SplitScratch scratch;
        std::vector<Space> frontier = {RootSpace(db, *gi, axes)};
        for (int level = 0; level < 3 && !frontier.empty(); ++level) {
          std::vector<Space> next;
          for (const Space& space : frontier) {
            std::vector<double> cuts = PartitionMedians(db, space);
            NaiveResult naive = NaiveSplitAndCount(db, *gi, space, cuts);
            ExpectIdentical(SplitAndCount(db, *gi, space, cuts, &scratch,
                                          /*simd=*/false),
                            naive);
            SplitResult fused = SplitAndCount(db, *gi, space, cuts, &scratch,
                                              /*simd=*/true);
            ExpectIdentical(fused, naive);
            for (Space& cell : fused.cells) {
              if (cell.rows.size() >= 8) next.push_back(std::move(cell));
            }
          }
          frontier = std::move(next);
        }
      }
    }
  }
}

// Same equivalence under the one-vs-rest group layout (group codes 0/1
// over a many-valued attribute, some rows excluded as -1).
TEST(SplitKernelTest, MatchesNaiveOneVsRestLayout) {
  data::Dataset db = MakeRandom(7, 500, 2, 6, 0.1);
  auto gi = data::GroupInfo::CreateOneVsRest(db, 2, "g0");
  ASSERT_TRUE(gi.ok());
  Space space = RootSpace(db, *gi, 2);
  std::vector<double> cuts = PartitionMedians(db, space);
  SplitScratch scratch;
  for (bool simd : {false, true}) {
    SplitResult fused = SplitAndCount(db, *gi, space, cuts, &scratch, simd);
    ExpectIdentical(fused, NaiveSplitAndCount(db, *gi, space, cuts));
  }
}

// Equivalence under a subset-of-values layout, where excluded rows sit
// inside the selection range as -1 codes.
TEST(SplitKernelTest, MatchesNaiveForValuesLayout) {
  data::Dataset db = MakeRandom(23, 500, 2, 5, 0.05);
  auto gi = data::GroupInfo::CreateForValues(db, 2, {"g1", "g3"});
  ASSERT_TRUE(gi.ok());
  Space space = RootSpace(db, *gi, 2);
  std::vector<double> cuts = PartitionMedians(db, space);
  SplitScratch scratch;
  for (bool simd : {false, true}) {
    SplitResult fused = SplitAndCount(db, *gi, space, cuts, &scratch, simd);
    ExpectIdentical(fused, NaiveSplitAndCount(db, *gi, space, cuts));
  }
}

// Rows of the selection that fall outside the space's bounds (or are
// missing) must be dropped by both kernels. Constructing the space with
// narrowed bounds over the full base selection exercises the
// inside-parent rejection that the recursion normally guarantees.
TEST(SplitKernelTest, MatchesNaiveWhenSelectionExceedsBounds) {
  data::Dataset db = MakeRandom(41, 300, 2, 3, 0.2);
  auto gi = data::GroupInfo::Create(db, 2);
  ASSERT_TRUE(gi.ok());
  Space space;
  space.bounds = {{0, -4.0, 5.0}, {1, -2.0, 8.0}};
  space.rows = gi->base_selection();
  std::vector<double> cuts = PartitionMedians(db, space);
  SplitScratch scratch;
  for (bool simd : {false, true}) {
    SplitResult fused = SplitAndCount(db, *gi, space, cuts, &scratch, simd);
    ExpectIdentical(fused, NaiveSplitAndCount(db, *gi, space, cuts));
  }
}

// One scratch arena reused across different spaces must give the same
// answers as a fresh arena each call (buffers carry no state between
// calls).
TEST(SplitKernelTest, ScratchReuseDoesNotLeakState) {
  data::Dataset db = MakeRandom(5, 300, 3, 3, 0.1);
  auto gi = data::GroupInfo::Create(db, 3);
  ASSERT_TRUE(gi.ok());
  SplitScratch reused;
  for (int axes : {3, 1, 2}) {
    Space space = RootSpace(db, *gi, axes);
    std::vector<double> cuts = PartitionMedians(db, space);
    SplitResult with_reuse =
        SplitAndCount(db, *gi, space, cuts, &reused, /*simd=*/true);
    SplitScratch fresh;
    SplitResult with_fresh =
        SplitAndCount(db, *gi, space, cuts, &fresh, /*simd=*/true);
    ASSERT_EQ(with_reuse.cells.size(), with_fresh.cells.size());
    for (size_t c = 0; c < with_reuse.cells.size(); ++c) {
      EXPECT_EQ(with_reuse.cells[c].rows.rows(),
                with_fresh.cells[c].rows.rows());
      EXPECT_EQ(with_reuse.counts[c].counts, with_fresh.counts[c].counts);
    }
  }
}

// No splittable axis (all cuts NaN) -> empty result from both paths.
TEST(SplitKernelTest, EmptyWhenNoAxisSplittable) {
  data::Dataset db = MakeRandom(11, 50, 2, 2, 0.0);
  auto gi = data::GroupInfo::Create(db, 2);
  ASSERT_TRUE(gi.ok());
  Space space = RootSpace(db, *gi, 2);
  std::vector<double> cuts = {std::nan(""), std::nan("")};
  SplitScratch scratch;
  for (bool simd : {false, true}) {
    SplitResult fused = SplitAndCount(db, *gi, space, cuts, &scratch, simd);
    EXPECT_TRUE(fused.cells.empty());
    EXPECT_TRUE(fused.counts.empty());
  }
  EXPECT_TRUE(FindCombs(db, space, cuts).empty());
}

// More splittable axes than kMaxSplitAxes: the shared SplittableAxes
// helper caps the list (keeping the first kMaxSplitAxes) instead of
// shifting past the machine word.
TEST(SplitKernelTest, SplittableAxesCappedAtMax) {
  std::vector<double> cuts(kMaxSplitAxes + 8, 0.5);
  std::vector<int> axes = SplittableAxes(cuts);
  ASSERT_EQ(axes.size(), kMaxSplitAxes);
  for (size_t i = 0; i < axes.size(); ++i) {
    EXPECT_EQ(axes[i], static_cast<int>(i));
  }
  cuts[3] = std::nan("");
  axes = SplittableAxes(cuts);
  ASSERT_EQ(axes.size(), kMaxSplitAxes);
  EXPECT_EQ(axes[3], 4);  // NaN axis skipped, next axis takes its place
}

// Attributes of the root-split data: `kRootAxes` continuous attributes
// of small integers (values tie at the cut), one constant continuous
// attribute (it never splits), a categorical prefix attribute and the
// group.
constexpr int kRootAxes = 4;
constexpr int kFlat = kRootAxes;
constexpr int kPrefix = kRootAxes + 1;
constexpr int kRootGroup = kRootAxes + 2;

// Seeded root-split data; each continuous value is missing at
// `missing_rate`, so the root filter of any combination drops rows.
data::Dataset MakeRootData(uint64_t seed, size_t rows, double missing_rate) {
  static const char* const kPrefixValues[] = {"p", "q", "r"};
  static const char* const kGroupValues[] = {"a", "b", "c"};
  util::Rng rng(seed);
  data::DatasetBuilder b;
  for (int a = 0; a < kRootAxes; ++a) {
    std::string name = "x";
    name += std::to_string(a);
    b.AddContinuous(name);
  }
  b.AddContinuous("flat");
  b.AddCategorical("c");
  b.AddCategorical("grp");
  for (size_t r = 0; r < rows; ++r) {
    for (int a = 0; a <= kFlat; ++a) {
      if (rng.Bernoulli(missing_rate)) {
        b.AppendMissing(a);
      } else {
        b.AppendContinuous(
            a, a == kFlat ? 2.5 : static_cast<double>(rng.UniformInt(-4, 4)));
      }
    }
    b.AppendCategorical(kPrefix, kPrefixValues[rng.NextBelow(3)]);
    b.AppendCategorical(kRootGroup, kGroupValues[rng.NextBelow(3)]);
  }
  auto db = std::move(b).Build();
  EXPECT_TRUE(db.ok());
  return std::move(db).value();
}

// True when a and b are the same double bit for bit (NaN equals NaN).
bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// partition(ca) row by row, the oracle of PartitionCut: the lower
// median (data::MedianInSelection) or the row-order mean of the axis's
// values over `rows`, kept when both halves (lo, m] and (m, hi] hold a
// row.
double OracleCut(const data::Dataset& db, const data::Selection& rows,
                 const AxisBound& b, SplitKind kind) {
  const data::ContinuousColumn& col = db.continuous(b.attr);
  double m = data::MedianInSelection(db, b.attr, rows);
  if (kind == SplitKind::kMean) {
    double sum = 0.0;
    size_t n = 0;
    for (uint32_t r : rows) {
      const double v = col.value(r);
      if (std::isnan(v)) continue;
      sum += v;
      ++n;
    }
    m = n > 0 ? sum / static_cast<double>(n) : std::nan("");
  }
  bool left = false;
  bool right = false;
  for (uint32_t r : rows) {
    const double v = col.value(r);
    if (v > b.lo && v <= m) left = true;
    if (v > m && v <= b.hi) right = true;
  }
  return left && right ? m : std::nan("");
}

// Builds the root space of `cont_attrs` under `prefix` (empty, or one
// categorical item) as the lattice search does (MakeRootCall), splits it
// from its bits (CutRootAxis, SplitRoot, RootCellRows) and checks every
// cut, cell, bound, size, count and row against what a root split ran
// before the bits: PartitionCuts, then SplitAndCount. Each cut also
// matches OracleCut. Returns the number of cells.
size_t ExpectRootSplitMatches(const data::Dataset& db,
                              const data::GroupInfo& gi,
                              const Itemset& prefix,
                              const std::vector<int>& cont_attrs,
                              SplitKind kind, bool simd) {
  MiningContext ctx;
  ctx.db = &db;
  ctx.gi = &gi;
  ctx.simd = simd;
  for (int attr : cont_attrs) {
    ctx.root_bounds[attr] = ComputeRootBounds(db, attr, gi.base_selection());
  }
  GroupCounts counts;
  data::Selection rows = gi.base_selection();
  counts.counts = GroupSizes(gi);
  if (!prefix.empty()) {
    rows = FilterCountItemKernel(db, gi, prefix.item(0), rows, &counts,
                                 &ctx.split_scratch, simd);
  }
  const SdadCall call = MakeRootCall(ctx, prefix, cont_attrs, rows, counts);
  const Space& root = call.space;

  RootBits bits;
  bits.groups = std::make_shared<const std::vector<std::vector<uint64_t>>>(
      GroupBits(gi, root.rows));
  for (const AxisBound& bound : root.bounds) {
    bits.axes[bound.attr] = std::make_shared<const RootAxis>(CutRootAxis(
        db, root.rows, bound, kind, &ctx.split_scratch, simd));
  }
  SplitScratch oracle_scratch;
  const std::vector<double> cuts =
      PartitionCuts(db, root, kind, &oracle_scratch.values,
                    &oracle_scratch.select, simd);
  for (size_t a = 0; a < root.bounds.size(); ++a) {
    const RootAxis& axis = *bits.axes.at(root.bounds[a].attr);
    const double oracle = OracleCut(db, root.rows, root.bounds[a], kind);
    EXPECT_TRUE(SameBits(axis.cut, oracle))
        << "axis " << a << ": " << axis.cut << " vs " << oracle;
    EXPECT_TRUE(SameBits(cuts[a], oracle))
        << "axis " << a << ": " << cuts[a] << " vs " << oracle;
    EXPECT_EQ(axis.right.empty(), std::isnan(axis.cut));
  }
  const SplitResult want =
      SplitAndCount(db, gi, root, cuts, &oracle_scratch, simd);
  const SplitResult got = SplitRoot(root, bits, &ctx.split_scratch, simd);
  EXPECT_EQ(got.axes, want.axes);
  EXPECT_EQ(got.sizes, want.sizes);
  EXPECT_EQ(got.cells.size(), want.cells.size());
  EXPECT_EQ(got.counts.size(), want.counts.size());
  if (got.cells.size() != want.cells.size()) return 0;
  for (size_t c = 0; c < got.cells.size(); ++c) {
    SCOPED_TRACE("cell " + std::to_string(c));
    const Space& gc = got.cells[c];
    const Space& wc = want.cells[c];
    EXPECT_EQ(gc.bounds.size(), wc.bounds.size());
    for (size_t a = 0; a < gc.bounds.size() && a < wc.bounds.size(); ++a) {
      EXPECT_EQ(gc.bounds[a].attr, wc.bounds[a].attr);
      EXPECT_TRUE(SameBits(gc.bounds[a].lo, wc.bounds[a].lo));
      EXPECT_TRUE(SameBits(gc.bounds[a].hi, wc.bounds[a].hi));
    }
    EXPECT_TRUE(gc.rows.empty());
    EXPECT_EQ(got.counts[c].counts, want.counts[c].counts);
    const data::Selection cell_rows = RootCellRows(root, bits, got, c);
    EXPECT_EQ(cell_rows.rows(), wc.rows.rows());
    EXPECT_EQ(cell_rows.rows().capacity(), cell_rows.size());
  }
  return got.cells.size();
}

// The root split from bits equals SplitAndCount on every root the
// search builds: 1-4 axes (values tie at the cut; the constant axis
// cannot split), with and without missing values for the root filter
// to drop, under no prefix and each categorical prefix, for both split
// kinds on both kernel paths. The 50-row data gives roots of at most 64
// rows, which the AVX2 quickselect finishes on a copy of its input.
TEST(RootSplitTest, MatchesSplitAndCountOnSeededRoots) {
  const std::vector<std::vector<int>> axis_sets = {
      {0}, {0, 1}, {0, kFlat, 2}, {0, 1, 2, 3}};
  size_t split_roots = 0;
  for (size_t rows : {size_t{50}, size_t{700}}) {
    for (uint64_t seed : {3u, 29u}) {
      for (double missing : {0.0, 0.2}) {
        data::Dataset db = MakeRootData(seed, rows, missing);
        auto gi = data::GroupInfo::Create(db, kRootGroup);
        ASSERT_TRUE(gi.ok());
        std::vector<Itemset> prefixes = {Itemset()};
        for (int32_t code = 0; code < 3; ++code) {
          prefixes.push_back(Itemset({Item::Categorical(kPrefix, code)}));
        }
        for (const std::vector<int>& axes : axis_sets) {
          for (const Itemset& prefix : prefixes) {
            for (SplitKind kind : {SplitKind::kMedian, SplitKind::kMean}) {
              for (bool simd : {false, true}) {
                SCOPED_TRACE("rows " + std::to_string(rows) + " seed " +
                             std::to_string(seed) + " missing " +
                             std::to_string(missing) + " axes " +
                             std::to_string(axes.size()) + " prefix " +
                             prefix.Key() + " mean " +
                             std::to_string(kind == SplitKind::kMean) +
                             " simd " + std::to_string(simd));
                if (ExpectRootSplitMatches(db, *gi, prefix, axes, kind,
                                           simd) > 0) {
                  ++split_roots;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(split_roots, 400u);
}

// The same on resident columns sliced into chunks of 1, 7 and 4096 rows
// and on the paged backend: the gathers that feed the bits walk the
// rows chunk span by chunk span.
TEST(RootSplitTest, MatchesSplitAndCountOnChunksAndPages) {
  data::Dataset db = MakeRootData(11, 700, 0.2);
  const std::string spill_path = testing::TempDir() + "root_split.spill";
  ASSERT_TRUE(data::WriteSpill(db, spill_path).ok());
  data::SpillOptions sopt;
  sopt.chunk_rows = 64;
  sopt.max_resident_bytes = db.MemoryUsage() / 4;
  auto paged = data::OpenSpill(spill_path, sopt);
  std::remove(spill_path.c_str());
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  const Itemset prefix({Item::Categorical(kPrefix, 1)});
  for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{4096}, size_t{0}}) {
    const bool on_pages = chunk_rows == 0;
    if (!on_pages) db.SetChunkRows(chunk_rows);
    const data::Dataset& data = on_pages ? *paged : db;
    auto gi = data::GroupInfo::Create(data, kRootGroup);
    ASSERT_TRUE(gi.ok());
    for (const Itemset& root_prefix : {Itemset(), prefix}) {
      for (bool simd : {false, true}) {
        SCOPED_TRACE("chunk_rows " + std::to_string(chunk_rows) +
                     " prefix " + root_prefix.Key() + " simd " +
                     std::to_string(simd));
        EXPECT_EQ(ExpectRootSplitMatches(data, *gi, root_prefix, {0, 1, 2},
                                         SplitKind::kMedian, simd),
                  8u);
      }
    }
  }
}

// A root whose every axis is constant does not split on either path;
// one whose values all tie with the median but one splits that one off.
TEST(RootSplitTest, UnsplittableAndLopsidedAxes) {
  data::DatasetBuilder b;
  const int flat = b.AddContinuous("flat");
  const int lopsided = b.AddContinuous("lopsided");
  const int grp = b.AddCategorical("grp");
  for (int r = 0; r < 90; ++r) {
    b.AppendContinuous(flat, 7.0);
    b.AppendContinuous(lopsided, r == 41 ? 9.0 : 1.0);
    b.AppendCategorical(grp, r % 3 == 0 ? "a" : "b");
  }
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  auto gi = data::GroupInfo::Create(*db, grp);
  ASSERT_TRUE(gi.ok());
  for (bool simd : {false, true}) {
    for (SplitKind kind : {SplitKind::kMedian, SplitKind::kMean}) {
      EXPECT_EQ(ExpectRootSplitMatches(*db, *gi, Itemset(), {flat}, kind,
                                       simd),
                0u);
      EXPECT_EQ(ExpectRootSplitMatches(*db, *gi, Itemset(),
                                       {flat, lopsided}, kind, simd),
                2u);
    }
  }
}

}  // namespace
}  // namespace sdadcs::core
