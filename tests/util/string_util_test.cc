#include "util/string_util.h"

#include <cmath>
#include <optional>

#include <gtest/gtest.h>

namespace sdadcs::util {
namespace {

TEST(SplitTest, BasicFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, EmptyFieldsPreserved) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, EmptyInputIsSingleEmptyField) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(TrimTest, StripsWhitespace) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(ParseDoubleTest, ParsesNumbers) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble(" -2e3 "), -2000.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("0"), 0.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("abc").has_value());
  EXPECT_FALSE(ParseDouble("1.5x").has_value());
  EXPECT_FALSE(ParseDouble("1.5 2").has_value());
}

TEST(ParseDoubleTest, OutOfRangeLiteralsParseToTheNearestDouble) {
  // Underflow: a subnormal, or zero past the smallest one.
  std::optional<double> tiny = ParseDouble("1e-310");
  ASSERT_TRUE(tiny.has_value());
  EXPECT_GT(*tiny, 0.0);
  EXPECT_EQ(std::fpclassify(*tiny), FP_SUBNORMAL);
  ASSERT_TRUE(ParseDouble("-1e-400").has_value());
  EXPECT_EQ(*ParseDouble("-1e-400"), 0.0);
  // Overflow: an infinity, which callers that cannot take one reject.
  ASSERT_TRUE(ParseDouble("1e400").has_value());
  EXPECT_TRUE(std::isinf(*ParseDouble("1e400")));
}

TEST(ToLowerTest, LowersAscii) {
  EXPECT_EQ(ToLower("AbC-12"), "abc-12");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("prefix_rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(FormatDoubleTest, CompactAndSpecials) {
  EXPECT_EQ(FormatDouble(1.5), "1.5");
  EXPECT_EQ(FormatDouble(2.0), "2");
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(FormatDouble(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::quiet_NaN()), "nan");
}

TEST(JsonEscapeTest, EscapesControlQuoteBackslash) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape("a\rb"), "a\\rb");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

}  // namespace
}  // namespace sdadcs::util
