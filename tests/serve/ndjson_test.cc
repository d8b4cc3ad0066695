// The hand-rolled JSON layer of the ND-JSON serving protocol: parser,
// typed accessors, escaping and the object writer.

#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "serve/ndjson.h"

namespace sdadcs::serve {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_EQ(JsonValue::Parse("null")->kind(), JsonValue::Kind::kNull);
  EXPECT_TRUE(JsonValue::Parse("true")->AsBool());
  EXPECT_FALSE(JsonValue::Parse("false")->AsBool());
  EXPECT_DOUBLE_EQ(JsonValue::Parse("3.5")->AsNumber(), 3.5);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-17")->AsNumber(), -17.0);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("1e3")->AsNumber(), 1000.0);
  EXPECT_EQ(JsonValue::Parse("\"hi\"")->AsString(), "hi");
}

// A literal below the smallest normal double is a number, not a
// "malformed number": the writer emits one for a subnormal value.
TEST(JsonParseTest, SubnormalNumbersParse) {
  auto tiny = JsonValue::Parse("1e-310");
  ASSERT_TRUE(tiny.ok()) << tiny.status().message();
  EXPECT_EQ(tiny->AsNumber(), 1e-310);
  const double smallest = std::numeric_limits<double>::denorm_min();
  auto back = JsonValue::Parse(JsonNumber(smallest));
  ASSERT_TRUE(back.ok()) << JsonNumber(smallest);
  EXPECT_EQ(back->AsNumber(), smallest);
  auto field = JsonValue::Parse(R"({"alpha":1e-320})");
  ASSERT_TRUE(field.ok()) << field.status().message();
  EXPECT_GT(field->GetNumber("alpha", 0.0), 0.0);
}

TEST(JsonParseTest, ObjectAndTypedAccessors) {
  auto v = JsonValue::Parse(
      R"({"op":"mine","rows":4096,"warm":true,"alpha":0.05,)"
      R"("groups":["a","b"],"nested":{"x":1}})");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->IsObject());
  EXPECT_EQ(v->GetString("op"), "mine");
  EXPECT_EQ(v->GetInt("rows", -1), 4096);
  EXPECT_TRUE(v->GetBool("warm", false));
  EXPECT_DOUBLE_EQ(v->GetNumber("alpha", 0.0), 0.05);
  EXPECT_EQ(v->GetStringArray("groups"),
            (std::vector<std::string>{"a", "b"}));
  ASSERT_NE(v->Find("nested"), nullptr);
  EXPECT_EQ(v->Find("nested")->GetInt("x", -1), 1);
  // Fallbacks: absent key and wrong type both fall back.
  EXPECT_EQ(v->GetString("missing", "dflt"), "dflt");
  EXPECT_EQ(v->GetInt("op", 42), 42);
  EXPECT_TRUE(v->GetStringArray("rows").empty());
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonParseTest, StringEscapes) {
  auto v = JsonValue::Parse(R"("a\"b\\c\/d\n\tAé")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "a\"b\\c/d\n\tA\xc3\xa9");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":}").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
  EXPECT_FALSE(JsonValue::Parse("'single'").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("\"bad \\x escape\"").ok());
  // One document per line: trailing garbage is an error, not ignored.
  EXPECT_FALSE(JsonValue::Parse("{} {}").ok());
  EXPECT_FALSE(JsonValue::Parse("1 2").ok());
  // Lone surrogate halves are rejected.
  EXPECT_FALSE(JsonValue::Parse(R"("\ud800")").ok());
}

TEST(JsonParseTest, DepthCapStopsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += '[';
  for (int i = 0; i < 64; ++i) deep += ']';
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
  // Modest nesting is fine.
  EXPECT_TRUE(JsonValue::Parse("[[[[[[[[1]]]]]]]]").ok());
}

TEST(JsonParseTest, WhitespaceTolerant) {
  auto v = JsonValue::Parse("  { \"a\" : [ 1 , 2 ] }  ");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Find("a")->AsArray().size(), 2u);
}

TEST(JsonNumberTest, IntegralAndFractionalRendering) {
  EXPECT_EQ(JsonNumber(3.0), "3");
  EXPECT_EQ(JsonNumber(-42.0), "-42");
  EXPECT_EQ(JsonNumber(0.125), "0.125");
  // JSON has no Inf/NaN.
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(JsonObjectWriterTest, RendersFieldsInInsertionOrder) {
  JsonObjectWriter nested;
  nested.Add("x", 1);
  JsonObjectWriter w;
  w.Add("op", "load")
      .Add("rows", static_cast<int64_t>(4096))
      .Add("warm", true)
      .Add("alpha", 0.5)
      .AddRaw("stats", nested.Str());
  EXPECT_EQ(w.Str(),
            R"({"op":"load","rows":4096,"warm":true,"alpha":0.5,)"
            R"("stats":{"x":1}})");
}

TEST(JsonObjectWriterTest, EscapesKeysAndValues) {
  JsonObjectWriter w;
  w.Add("say \"hi\"", "a\nb");
  EXPECT_EQ(w.Str(), R"({"say \"hi\"":"a\nb"})");
}

TEST(JsonRoundTripTest, WriterOutputParsesBack) {
  JsonObjectWriter w;
  w.Add("name", "scaling").Add("rows", 20000).Add("ok", true);
  auto v = JsonValue::Parse(w.Str());
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->GetString("name"), "scaling");
  EXPECT_EQ(v->GetInt("rows", -1), 20000);
  EXPECT_TRUE(v->GetBool("ok", false));
}

}  // namespace
}  // namespace sdadcs::serve
