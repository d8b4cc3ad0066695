#include "data/csv.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include <gtest/gtest.h>

namespace sdadcs::data {
namespace {

TEST(CsvTest, InfersTypesFromValues) {
  auto db = ReadCsvString("num,cat\n1.5,a\n2,b\n-3e2,a\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_rows(), 3u);
  EXPECT_TRUE(db->is_continuous(0));
  EXPECT_TRUE(db->is_categorical(1));
  EXPECT_DOUBLE_EQ(db->continuous(0).value(2), -300.0);
}

TEST(CsvTest, MixedColumnBecomesCategorical) {
  auto db = ReadCsvString("col\n1\nx\n2\n");
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->is_categorical(0));
}

TEST(CsvTest, MissingTokens) {
  auto db = ReadCsvString("a,b\n1,?\n,x\nNA,y\n");
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->is_continuous(0));
  EXPECT_TRUE(db->continuous(0).is_missing(1));
  EXPECT_TRUE(db->continuous(0).is_missing(2));
  EXPECT_TRUE(db->categorical(1).is_missing(0));
}

TEST(CsvTest, ForceCategoricalOverridesInference) {
  CsvOptions opts;
  opts.force_categorical = {"code"};
  auto db = ReadCsvString("code\n1\n2\n1\n", opts);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->is_categorical(0));
  EXPECT_EQ(db->categorical(0).cardinality(), 2);
}

TEST(CsvTest, NoHeaderGeneratesNames) {
  CsvOptions opts;
  opts.has_header = false;
  auto db = ReadCsvString("1,a\n2,b\n", opts);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->schema().attribute(0).name, "attr_0");
  EXPECT_EQ(db->schema().attribute(1).name, "attr_1");
}

TEST(CsvTest, AlternateDelimiter) {
  CsvOptions opts;
  opts.delimiter = ';';
  auto db = ReadCsvString("a;b\n1;x\n", opts);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_attributes(), 2u);
}

TEST(CsvTest, RejectsRaggedRows) {
  EXPECT_FALSE(ReadCsvString("a,b\n1,2\n3\n").ok());
}

// An infinite value in a numeric column would match no interval while
// still counting in its group's size, so the reader refuses it and names
// the row, the column and the field.
void ExpectInfiniteRejected(const std::string& field) {
  auto db = ReadCsvString("g,x\na,1\nb," + field + "\na,3\n");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), util::StatusCode::kInvalidArgument);
  const std::string& msg = db.status().message();
  EXPECT_NE(msg.find("row 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("column 'x'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'" + field + "'"), std::string::npos) << msg;
}

TEST(CsvTest, RejectsInf) { ExpectInfiniteRejected("inf"); }

TEST(CsvTest, RejectsNegativeInf) { ExpectInfiniteRejected("-inf"); }

TEST(CsvTest, RejectsOverflowingLiteral) { ExpectInfiniteRejected("1e999"); }

TEST(CsvTest, FiniteTwinOfInfiniteLoads) {
  auto db = ReadCsvString("g,x\na,1\nb,-1e300\na,3\n");
  ASSERT_TRUE(db.ok()) << db.status().message();
  ASSERT_TRUE(db->is_continuous(1));
  EXPECT_EQ(db->continuous(1).value(1), -1e300);
}

// A literal below the smallest normal double still names a number: one
// such value must not turn the whole column categorical.
TEST(CsvTest, SubnormalKeepsTheColumnContinuous) {
  auto db = ReadCsvString("g,x\na,1.5\nb,2.5\na,1e-310\nb,3\n");
  ASSERT_TRUE(db.ok()) << db.status().message();
  ASSERT_TRUE(db->is_continuous(1));
  EXPECT_EQ(db->continuous(1).value(2), 1e-310);
  EXPECT_EQ(std::fpclassify(db->continuous(1).value(2)), FP_SUBNORMAL);
  // And a literal that underflows to zero reads as zero.
  auto zero = ReadCsvString("g,x\na,1\nb,1e-400\n");
  ASSERT_TRUE(zero.ok());
  ASSERT_TRUE(zero->is_continuous(1));
  EXPECT_EQ(zero->continuous(1).value(1), 0.0);
}

TEST(CsvTest, SubnormalSurvivesAWriteReadRoundTrip) {
  const double smallest = std::numeric_limits<double>::denorm_min();
  DatasetBuilder b;
  const int g = b.AddCategorical("g");
  const int x = b.AddContinuous("x");
  b.AppendCategorical(g, "a");
  b.AppendContinuous(x, smallest);
  b.AppendCategorical(g, "b");
  b.AppendContinuous(x, 2.0);
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  std::string text = WriteCsvString(*db);
  auto back = ReadCsvString(text);
  ASSERT_TRUE(back.ok()) << back.status().message() << "\n" << text;
  ASSERT_TRUE(back->is_continuous(1)) << text;
  EXPECT_EQ(back->continuous(1).value(0), smallest) << text;
  EXPECT_EQ(back->continuous(1).value(1), 2.0);
}

TEST(CsvTest, RejectsEmptyAndHeaderOnly) {
  EXPECT_FALSE(ReadCsvString("").ok());
  EXPECT_FALSE(ReadCsvString("a,b\n").ok());
}

TEST(CsvTest, HandlesCrLf) {
  auto db = ReadCsvString("a,b\r\n1,x\r\n2,y\r\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_rows(), 2u);
  EXPECT_EQ(db->categorical(1).ValueOf(db->categorical(1).code(1)), "y");
}

TEST(CsvTest, AllMissingColumnIsCategorical) {
  auto db = ReadCsvString("a,b\n?,1\n?,2\n");
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->is_categorical(0));
}

TEST(CsvTest, RoundTripThroughWrite) {
  auto db = ReadCsvString("num,cat\n1.25,a\n-2,b\n");
  ASSERT_TRUE(db.ok());
  std::string text = WriteCsvString(*db);
  auto db2 = ReadCsvString(text);
  ASSERT_TRUE(db2.ok());
  EXPECT_EQ(db2->num_rows(), db->num_rows());
  EXPECT_DOUBLE_EQ(db2->continuous(0).value(0), 1.25);
  EXPECT_EQ(db2->categorical(1).ValueOf(db2->categorical(1).code(1)), "b");
}

TEST(CsvTest, FileRoundTrip) {
  auto db = ReadCsvString("x,y\n1,a\n2,b\n");
  ASSERT_TRUE(db.ok());
  std::string path = testing::TempDir() + "/sdadcs_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(*db, path).ok());
  auto db2 = ReadCsvFile(path);
  ASSERT_TRUE(db2.ok());
  EXPECT_EQ(db2->num_rows(), 2u);
  std::remove(path.c_str());
}

TEST(CsvQuotingTest, QuotedDelimiterIsData) {
  auto db = ReadCsvString("name,score\n\"Doe, Jane\",5\nBob,3\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_attributes(), 2u);
  const auto& col = db->categorical(0);
  EXPECT_EQ(col.ValueOf(col.code(0)), "Doe, Jane");
}

TEST(CsvQuotingTest, EscapedQuotes) {
  auto db = ReadCsvString("q\n\"say \"\"hi\"\"\"\nplain\n");
  ASSERT_TRUE(db.ok());
  const auto& col = db->categorical(0);
  EXPECT_EQ(col.ValueOf(col.code(0)), "say \"hi\"");
}

TEST(CsvQuotingTest, QuotedFieldPreservesSpaces) {
  auto db = ReadCsvString("v\n\"  padded  \"\nother\n");
  ASSERT_TRUE(db.ok());
  const auto& col = db->categorical(0);
  EXPECT_EQ(col.ValueOf(col.code(0)), "  padded  ");
}

TEST(CsvQuotingTest, UnterminatedQuoteIsError) {
  auto db = ReadCsvString("v\n\"oops\nnext\n");
  EXPECT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(CsvQuotingTest, WriterQuotesAndRoundTrips) {
  DatasetBuilder b;
  int c = b.AddCategorical("label");
  b.AppendCategorical(c, "a,b");
  b.AppendCategorical(c, "has \"quotes\"");
  b.AppendCategorical(c, " spaced ");
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  std::string text = WriteCsvString(*db);
  auto db2 = ReadCsvString(text);
  ASSERT_TRUE(db2.ok());
  const auto& col = db2->categorical(0);
  EXPECT_EQ(col.ValueOf(col.code(0)), "a,b");
  EXPECT_EQ(col.ValueOf(col.code(1)), "has \"quotes\"");
  EXPECT_EQ(col.ValueOf(col.code(2)), " spaced ");
}

TEST(CsvQuotingTest, QuotedNumbersStayNumeric) {
  auto db = ReadCsvString("x\n\"1.5\"\n\"2.5\"\n");
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->is_continuous(0));
  EXPECT_DOUBLE_EQ(db->continuous(0).value(1), 2.5);
}

TEST(CsvTest, MissingFileIsIoError) {
  auto db = ReadCsvFile("/nonexistent/path/data.csv");
  EXPECT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), util::StatusCode::kIoError);
}

// A directory opens but cannot be read: that is an IoError naming the
// path, not an empty CSV.
TEST(CsvTest, DirectoryIsIoError) {
  const std::string dir = testing::TempDir();
  auto db = ReadCsvFile(dir);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), util::StatusCode::kIoError);
  EXPECT_NE(db.status().message().find(dir), std::string::npos)
      << db.status().message();
}

// The schema refuses a repeated name (two blank names repeat too): the
// reader reports it, naming the column, before appending any value.
TEST(CsvTest, DuplicateHeaderNameIsAnError) {
  for (const char* text : {"a,a\n1,2\n", "a,b,\"a\"\nx,1,2\n", " , \n1,2\n"}) {
    auto db = ReadCsvString(text);
    ASSERT_FALSE(db.ok()) << text;
    EXPECT_EQ(db.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(db.status().message().find("twice"), std::string::npos)
        << db.status().message();
  }
  auto named = ReadCsvString("a,a\n1,2\n");
  EXPECT_EQ(named.status().message(), "CSV header names column 'a' twice");
}

}  // namespace
}  // namespace sdadcs::data
