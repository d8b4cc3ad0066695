#include "util/string_util.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "common/number_literals.h"
#include "util/random.h"

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

// The parser ParseDouble replaced: strtod over a trimmed copy, the whole
// copy consumed.
std::optional<double> StrtodParse(std::string_view s) {
  const std::string t(Trim(s));
  if (t.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(t.c_str(), &end);
  if (end != t.c_str() + t.size()) return std::nullopt;
  return v;
}

::testing::AssertionResult SameAsStrtod(const std::string& literal) {
  const std::optional<double> got = ParseDouble(literal);
  const std::optional<double> want = StrtodParse(literal);
  if (got.has_value() != want.has_value()) {
    return ::testing::AssertionFailure()
           << "'" << literal << "': parsed " << got.has_value()
           << ", strtod " << want.has_value();
  }
  uint64_t g = 0;
  uint64_t w = 0;
  if (got.has_value()) {
    std::memcpy(&g, &*got, sizeof g);
    std::memcpy(&w, &*want, sizeof w);
  }
  if (g != w) {
    return ::testing::AssertionFailure()
           << "'" << literal << "': bits " << std::hex << g << ", strtod "
           << w;
  }
  return ::testing::AssertionSuccess();
}

// ParseDouble takes std::from_chars where it can and strtod elsewhere;
// either way it must return strtod's bits, NaN payloads included.
TEST(ParseDoubleTest, MatchesStrtodBitForBit) {
  util::Rng rng(0x0dd5eed);
  for (const char* literal : test_support::kEdgeLiterals) {
    ASSERT_TRUE(SameAsStrtod(literal));
    std::string padded = " \t";
    padded.append(literal).append("\r\n");
    ASSERT_TRUE(SameAsStrtod(padded));
    std::string signed_literal = "+";
    signed_literal.append(literal);
    ASSERT_TRUE(SameAsStrtod(signed_literal));
  }
  for (int i = 0; i < 25000; ++i) {
    const double v = test_support::RandomDouble(rng);
    for (int format = 0; format < 4; ++format) {
      ASSERT_TRUE(SameAsStrtod(test_support::PrintDouble(v, format)));
    }
  }
  for (int i = 0; i < 40000; ++i) {
    std::string literal;
    if (rng.Bernoulli(0.1)) literal.push_back(rng.Bernoulli(0.5) ? '+' : ' ');
    literal.append(test_support::RandomNumberLiteral(rng));
    if (rng.Bernoulli(0.1)) literal.push_back(rng.Bernoulli(0.5) ? 'x' : ' ');
    ASSERT_TRUE(SameAsStrtod(literal));
  }
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
