#include "data/order_stats.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace sdadcs::data {
namespace {

Dataset MakeDb(const std::vector<double>& values) {
  DatasetBuilder b;
  int x = b.AddContinuous("x");
  for (double v : values) {
    if (std::isnan(v)) {
      b.AppendMissing(x);
    } else {
      b.AppendContinuous(x, v);
    }
  }
  auto db = std::move(b).Build();
  EXPECT_TRUE(db.ok());
  return std::move(db).value();
}

TEST(MedianInSelectionTest, OddCount) {
  Dataset db = MakeDb({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(MedianInSelection(db, 0, Selection::All(3)), 3.0);
}

TEST(MedianInSelectionTest, EvenCountTakesLowerMiddle) {
  Dataset db = MakeDb({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(MedianInSelection(db, 0, Selection::All(4)), 2.0);
}

TEST(MedianInSelectionTest, RespectsSelection) {
  Dataset db = MakeDb({1.0, 100.0, 2.0, 200.0});
  Selection sel({1, 3});
  EXPECT_DOUBLE_EQ(MedianInSelection(db, 0, sel), 100.0);
}

TEST(MedianInSelectionTest, EmptyIsNan) {
  Dataset db = MakeDb({1.0});
  EXPECT_TRUE(std::isnan(MedianInSelection(db, 0, Selection())));
}

TEST(MedianInSelectionTest, SkipsMissing) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  Dataset db = MakeDb({kNan, 7.0, kNan});
  EXPECT_DOUBLE_EQ(MedianInSelection(db, 0, Selection::All(3)), 7.0);
}

TEST(QuantileInSelectionTest, Extremes) {
  Dataset db = MakeDb({10.0, 20.0, 30.0, 40.0});
  Selection all = Selection::All(4);
  EXPECT_DOUBLE_EQ(QuantileInSelection(db, 0, all, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(QuantileInSelection(db, 0, all, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(QuantileInSelection(db, 0, all, 0.5), 20.0);
}

TEST(MinMaxInSelectionTest, Basic) {
  Dataset db = MakeDb({3.0, -1.0, 8.0});
  MinMax mm = MinMaxInSelection(db, 0, Selection::All(3));
  EXPECT_DOUBLE_EQ(mm.min, -1.0);
  EXPECT_DOUBLE_EQ(mm.max, 8.0);
}

TEST(MinMaxInSelectionTest, EmptySelectionIsNan) {
  Dataset db = MakeDb({3.0});
  MinMax mm = MinMaxInSelection(db, 0, Selection());
  EXPECT_TRUE(std::isnan(mm.min));
  EXPECT_TRUE(std::isnan(mm.max));
}

TEST(MinMaxInSelectionTest, RecordsMissingRowsOfTheSelection) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  Dataset db = MakeDb({3.0, kNan, 8.0});
  MinMax all = MinMaxInSelection(db, 0, Selection::All(3));
  EXPECT_TRUE(all.missing);
  EXPECT_DOUBLE_EQ(all.min, 3.0);
  EXPECT_DOUBLE_EQ(all.max, 8.0);
  // Only rows of the selection count: skipping the NaN row clears it.
  EXPECT_FALSE(MinMaxInSelection(db, 0, Selection({0, 2})).missing);
  EXPECT_TRUE(MinMaxInSelection(db, 0, Selection({1})).missing);
}

}  // namespace
}  // namespace sdadcs::data
