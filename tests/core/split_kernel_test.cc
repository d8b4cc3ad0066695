#include "core/split_kernel.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/space.h"
#include "core/support.h"
#include "data/dataset.h"
#include "data/group_info.h"
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
    cont.push_back(b.AddContinuous("x" + std::to_string(a)));
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
    b.AppendCategorical(
        grp, "g" + std::to_string(rng.NextBelow(
                       static_cast<uint64_t>(num_values))));
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

}  // namespace
}  // namespace sdadcs::core
