// The four counting-scan kernels on both paths: the scalar oracle
// (simd=false) and the vectorized path (simd=true) must return identical
// rows and counts, and the filters exact-size selections. On a host
// without AVX2 both calls run scalar and the comparison holds trivially.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/match_kernel.h"
#include "core/space.h"
#include "core/split_kernel.h"
#include "core/support.h"
#include "data/dataset.h"
#include "data/group_info.h"
#include "util/random.h"

namespace sdadcs::core {
namespace {

constexpr size_t kRows = 2003;
constexpr int kX0 = 0;
constexpr int kX1 = 1;
constexpr int kC0 = 2;
constexpr int kC1 = 3;
constexpr int kGroup = 4;

// Two continuous columns of small integers (so interval edges land on
// data values) and two categorical columns, each with missing values,
// plus a three-valued group attribute.
data::Dataset MakeMixed(uint64_t seed) {
  static const char* const kValues[] = {"v0", "v1", "v2", "v3"};
  static const char* const kGroups[] = {"g0", "g1", "g2"};
  util::Rng rng(seed);
  data::DatasetBuilder b;
  b.AddContinuous("x0");
  b.AddContinuous("x1");
  b.AddCategorical("c0");
  b.AddCategorical("c1");
  b.AddCategorical("grp");
  for (size_t r = 0; r < kRows; ++r) {
    for (int attr : {kX0, kX1}) {
      if (rng.Bernoulli(0.15)) {
        b.AppendMissing(attr);
      } else {
        b.AppendContinuous(attr, static_cast<double>(rng.UniformInt(-5, 5)));
      }
    }
    for (int attr : {kC0, kC1}) {
      if (rng.Bernoulli(0.1)) {
        b.AppendMissing(attr);
      } else {
        b.AppendCategorical(attr, kValues[rng.NextBelow(4)]);
      }
    }
    b.AppendCategorical(kGroup, kGroups[rng.NextBelow(3)]);
  }
  auto db = std::move(b).Build();
  EXPECT_TRUE(db.ok());
  return std::move(db).value();
}

// `k` distinct random rows of the dataset, ascending.
data::Selection RandomRows(util::Rng* rng, size_t k) {
  std::set<uint32_t> rows;
  while (rows.size() < k) {
    rows.insert(static_cast<uint32_t>(rng->NextBelow(kRows)));
  }
  return data::Selection(std::vector<uint32_t>(rows.begin(), rows.end()));
}

// A filter output holds no spare capacity: the run may keep it (the
// search's per-item covers live for the whole mine).
void ExpectExactSize(const data::Selection& sel) {
  EXPECT_EQ(sel.rows().capacity(), sel.size());
}

// Runs every scan kernel over `sel` on both paths, each path reusing its
// own scratch across calls, and expects identical rows and counts.
void ExpectPathsMatch(const data::Dataset& db, const data::GroupInfo& gi,
                      const data::Selection& sel, SplitScratch* scalar_scratch,
                      SplitScratch* simd_scratch) {
  const int32_t v1 = db.categorical(kC0).CodeOf("v1");
  const int32_t v2 = db.categorical(kC1).CodeOf("v2");
  const Item cat0 = Item::Categorical(kC0, v1);
  const Item cat1 = Item::Categorical(kC1, v2);
  const Item band0 = Item::Interval(kX0, -2.0, 3.0);
  const Item band1 = Item::Interval(kX1, -5.0, 0.0);
  for (const Itemset& is :
       {Itemset({cat0}), Itemset({band0}), Itemset({cat0, band1}),
        Itemset({cat0, cat1, band0, band1})}) {
    EXPECT_EQ(CountMatchesKernel(db, gi, is, sel, scalar_scratch, false).counts,
              CountMatchesKernel(db, gi, is, sel, simd_scratch, true).counts)
        << is.Key();
  }
  for (const Item& item : {cat0, cat1, band0, band1}) {
    GroupCounts scalar_gc;
    GroupCounts simd_gc;
    data::Selection scalar = FilterCountItemKernel(db, gi, item, sel,
                                                   &scalar_gc, scalar_scratch,
                                                   false);
    data::Selection simd = FilterCountItemKernel(db, gi, item, sel, &simd_gc,
                                                 simd_scratch, true);
    EXPECT_EQ(scalar.rows(), simd.rows());
    EXPECT_EQ(scalar_gc.counts, simd_gc.counts);
    ExpectExactSize(scalar);
    ExpectExactSize(simd);
  }
  for (const std::vector<int>& attrs :
       {std::vector<int>{kX0}, std::vector<int>{kX0, kX1}}) {
    GroupCounts scalar_gc;
    GroupCounts simd_gc;
    data::Selection scalar = FilterAllPresentKernel(
        db, gi, attrs, sel, &scalar_gc, scalar_scratch, false);
    data::Selection simd = FilterAllPresentKernel(db, gi, attrs, sel,
                                                  &simd_gc, simd_scratch, true);
    EXPECT_EQ(scalar.rows(), simd.rows());
    EXPECT_EQ(scalar_gc.counts, simd_gc.counts);
    ExpectExactSize(scalar);
    ExpectExactSize(simd);
  }
  // Rows missing an axis or outside its bounds drop out of every cell on
  // both paths.
  Space space;
  space.bounds = {{kX0, -4.0, 5.0}, {kX1, -5.0, 5.0}};
  space.rows = sel;
  const std::vector<double> cuts = {0.0, 1.0};
  SplitResult scalar =
      SplitAndCount(db, gi, space, cuts, scalar_scratch, false);
  SplitResult simd = SplitAndCount(db, gi, space, cuts, simd_scratch, true);
  ASSERT_EQ(scalar.cells.size(), 4u);
  ASSERT_EQ(simd.cells.size(), 4u);
  for (size_t c = 0; c < scalar.cells.size(); ++c) {
    EXPECT_EQ(scalar.cells[c].rows.rows(), simd.cells[c].rows.rows());
    EXPECT_EQ(scalar.counts[c].counts, simd.counts[c].counts);
    ExpectExactSize(scalar.cells[c].rows);
    ExpectExactSize(simd.cells[c].rows);
  }
}

TEST(ScanKernelTest, ScalarAndVectorizedPathsMatch) {
  data::Dataset db = MakeMixed(31);
  // Two of the three groups leave the rows of "g1" in the selections
  // with group code -1, which must count nowhere on either path; all
  // three leave no such row.
  auto two = data::GroupInfo::CreateForValues(db, kGroup, {"g0", "g2"});
  auto three = data::GroupInfo::CreateForValues(db, kGroup, {"g0", "g1", "g2"});
  ASSERT_TRUE(two.ok());
  ASSERT_TRUE(three.ok());

  // Sizes off the 4- and 8-row vector widths, shrinking and then growing,
  // so each path's one scratch sees a smaller selection after a larger.
  util::Rng rng(5);
  std::vector<data::Selection> selections;
  for (size_t k : {1021, 203, 13, 1, 7, 1500}) {
    selections.push_back(RandomRows(&rng, k));
  }
  selections.push_back(data::Selection::All(kRows));

  SplitScratch scalar_scratch;
  SplitScratch simd_scratch;
  for (const data::GroupInfo* gi : {&*two, &*three}) {
    for (size_t chunk_rows : {7, 4096}) {
      db.SetChunkRows(chunk_rows);
      for (const data::Selection& sel : selections) {
        SCOPED_TRACE("groups " + std::to_string(gi->num_groups()) +
                     " chunk_rows " + std::to_string(chunk_rows) + " rows " +
                     std::to_string(sel.size()));
        ExpectPathsMatch(db, *gi, sel, &scalar_scratch, &simd_scratch);
      }
    }
  }
}

}  // namespace
}  // namespace sdadcs::core
