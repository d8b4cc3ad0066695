#include "data/dataset.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace sdadcs::data {
namespace {

TEST(DatasetBuilderTest, BuildsMixedDataset) {
  DatasetBuilder b;
  int age = b.AddContinuous("age");
  int occ = b.AddCategorical("occupation");
  b.AppendContinuous(age, 30.0);
  b.AppendContinuous(age, 40.0);
  b.AppendCategorical(occ, "eng");
  b.AppendCategorical(occ, "sales");

  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_rows(), 2u);
  EXPECT_EQ(db->num_attributes(), 2u);
  EXPECT_TRUE(db->is_continuous(age));
  EXPECT_TRUE(db->is_categorical(occ));
  EXPECT_DOUBLE_EQ(db->continuous(age).value(1), 40.0);
  EXPECT_EQ(db->categorical(occ).ValueOf(db->categorical(occ).code(0)),
            "eng");
}

TEST(DatasetBuilderTest, RejectsRaggedColumns) {
  DatasetBuilder b;
  int a = b.AddContinuous("a");
  int c = b.AddCategorical("c");
  b.AppendContinuous(a, 1.0);
  b.AppendContinuous(a, 2.0);
  b.AppendCategorical(c, "only-one");
  auto db = std::move(b).Build();
  EXPECT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(DatasetBuilderTest, RejectsDuplicateAttributeName) {
  DatasetBuilder b;
  b.AddContinuous("x");
  b.AddCategorical("x");
  auto db = std::move(b).Build();
  EXPECT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), util::StatusCode::kAlreadyExists);
}

TEST(DatasetBuilderTest, RejectsEmptySchema) {
  DatasetBuilder b;
  auto db = std::move(b).Build();
  EXPECT_FALSE(db.ok());
}

// An infinite value has no root bound below or above it, so Build
// refuses one on either side, as the CSV reader does; NaN stays the
// missing value.
TEST(DatasetBuilderTest, RejectsInfiniteValues) {
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {-inf, inf}) {
    DatasetBuilder b;
    int x = b.AddContinuous("x");
    b.AppendContinuous(x, 1.0);
    b.AppendContinuous(x, bad);
    b.AppendContinuous(x, std::nan(""));
    auto db = std::move(b).Build();
    ASSERT_FALSE(db.ok()) << bad;
    EXPECT_EQ(db.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(db.status().message().find("'x'"), std::string::npos)
        << db.status().message();
  }
}

TEST(DatasetBuilderTest, MissingValues) {
  DatasetBuilder b;
  int x = b.AddContinuous("x");
  int c = b.AddCategorical("c");
  b.AppendMissing(x);
  b.AppendContinuous(x, 5.0);
  b.AppendCategorical(c, "v");
  b.AppendMissing(c);
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->continuous(x).is_missing(0));
  EXPECT_FALSE(db->continuous(x).is_missing(1));
  EXPECT_FALSE(db->categorical(c).is_missing(0));
  EXPECT_TRUE(db->categorical(c).is_missing(1));
}

TEST(DatasetTest, DebugRowRendersValuesAndMissing) {
  DatasetBuilder b;
  int x = b.AddContinuous("x");
  int c = b.AddCategorical("c");
  b.AppendContinuous(x, 1.5);
  b.AppendCategorical(c, "v1");
  b.AppendMissing(x);
  b.AppendMissing(c);
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->DebugRow(0), "x=1.5, c=v1");
  EXPECT_EQ(db->DebugRow(1), "x=?, c=?");
}

TEST(SchemaTest, IndexOfFindsAndFails) {
  Schema s;
  ASSERT_TRUE(s.Add("a", AttributeType::kContinuous).ok());
  ASSERT_TRUE(s.Add("b", AttributeType::kCategorical).ok());
  EXPECT_EQ(*s.IndexOf("b"), 1);
  EXPECT_FALSE(s.IndexOf("zzz").ok());
}

TEST(SchemaTest, AttributesOfType) {
  Schema s;
  ASSERT_TRUE(s.Add("a", AttributeType::kContinuous).ok());
  ASSERT_TRUE(s.Add("b", AttributeType::kCategorical).ok());
  ASSERT_TRUE(s.Add("c", AttributeType::kContinuous).ok());
  EXPECT_EQ(s.AttributesOfType(AttributeType::kContinuous),
            (std::vector<int>{0, 2}));
  EXPECT_EQ(s.AttributesOfType(AttributeType::kCategorical),
            (std::vector<int>{1}));
}

TEST(ColumnTest, DictionaryEncoding) {
  CategoricalColumn col;
  col.Append("x");
  col.Append("y");
  col.Append("x");
  EXPECT_EQ(col.cardinality(), 2);
  EXPECT_EQ(col.code(0), col.code(2));
  EXPECT_NE(col.code(0), col.code(1));
  EXPECT_EQ(col.CodeOf("y"), col.code(1));
  EXPECT_EQ(col.CodeOf("unseen"), kMissingCode);
}

TEST(ColumnTest, ContinuousMinMaxSkipsMissing) {
  ContinuousColumn col;
  col.Append(3.0);
  col.AppendMissing();
  col.Append(-1.0);
  EXPECT_DOUBLE_EQ(col.Min(), -1.0);
  EXPECT_DOUBLE_EQ(col.Max(), 3.0);
}

}  // namespace
}  // namespace sdadcs::data
