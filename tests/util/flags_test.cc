#include "util/flags.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace sdadcs::util {
namespace {

// Every value flag these tests pass.
const std::vector<std::string> kValueFlags = {
    "group",  "depth", "delta",      "groups", "alpha",
    "tiny",   "neg",   "validate",   "diverse", "top",
    "shards", "queue", "chunk-rows", "repeat", "budget",
    "cap",    "max-resident-bytes"};

StatusOr<Flags> ParseAll(std::vector<const char*> argv,
                         std::vector<std::string> booleans = {"np"}) {
  argv.insert(argv.begin(), "tool");
  return Flags::Parse(static_cast<int>(argv.size()), argv.data(), kValueFlags,
                      booleans);
}

TEST(FlagsTest, PositionalsAndValues) {
  auto f = ParseAll({"mine", "data.csv", "--group", "outcome", "--depth",
                     "3"});
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->positional(),
            (std::vector<std::string>{"mine", "data.csv"}));
  EXPECT_EQ(f->Get("group"), "outcome");
  int depth = 1;
  ASSERT_TRUE(f->GetCount("depth", &depth).ok());
  EXPECT_EQ(depth, 3);
}

TEST(FlagsTest, BooleanFlagConsumesNoValue) {
  auto f = ParseAll({"mine", "--np", "data.csv"});
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f->Has("np"));
  EXPECT_EQ(f->positional().size(), 2u);
}

TEST(FlagsTest, EqualsForm) {
  auto f = ParseAll({"--delta=0.25", "--groups=a,b"});
  ASSERT_TRUE(f.ok());
  double delta = 0.0;
  ASSERT_TRUE(f->GetNumber("delta", &delta).ok());
  EXPECT_DOUBLE_EQ(delta, 0.25);
  EXPECT_EQ(f->GetList("groups"),
            (std::vector<std::string>{"a", "b"}));
}

TEST(FlagsTest, MissingValueIsError) {
  auto f = ParseAll({"mine", "--group"});
  EXPECT_FALSE(f.ok());
}

TEST(FlagsTest, BareDoubleDashIsError) {
  auto f = ParseAll({"--"});
  EXPECT_FALSE(f.ok());
}

TEST(FlagsTest, UnknownFlagIsErrorNamingIt) {
  // A misspelt flag must not be dropped in favour of the default it
  // meant to override, in either form and wherever it appears.
  for (std::vector<const char*> argv :
       {std::vector<const char*>{"mine", "data.csv", "--deph", "1"},
        std::vector<const char*>{"--deph=1", "mine"},
        std::vector<const char*>{"--depth", "3", "--deph"},
        std::vector<const char*>{"--np", "--deph", "1", "--depth", "3"}}) {
    auto f = ParseAll(argv);
    ASSERT_FALSE(f.ok());
    EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(f.status().message().find("--deph"), std::string::npos)
        << f.status().message();
  }
}

TEST(FlagsTest, FlagsKnownOnlyAsBooleanOrValueKeepTheirKind) {
  // A name a tool lists as boolean never swallows the next argument,
  // and the same name is unknown to a tool that does not list it.
  auto f = ParseAll({"--np", "data.csv"});
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->positional(), (std::vector<std::string>{"data.csv"}));
  auto no_booleans = ParseAll({"--np", "data.csv"}, /*booleans=*/{});
  ASSERT_FALSE(no_booleans.ok());
  EXPECT_NE(no_booleans.status().message().find("--np"), std::string::npos);
}

TEST(FlagsTest, FallbacksOnAbsent) {
  auto f = ParseAll({"--depth", "3"});
  ASSERT_TRUE(f.ok());
  int count = 9;
  ASSERT_TRUE(f->GetCount("missing", &count).ok());
  EXPECT_EQ(count, 9);
  double number = 0.5;
  ASSERT_TRUE(f->GetNumber("missing", &number).ok());
  EXPECT_DOUBLE_EQ(number, 0.5);
  EXPECT_EQ(f->Get("missing", "dft"), "dft");
  EXPECT_TRUE(f->GetList("missing").empty());
}

TEST(FlagsTest, NumberStoresAFiniteValue) {
  auto f = ParseAll({"--alpha", "0.01", "--delta", " 1e-1 ", "--tiny",
                     "1e-310", "--neg", "-2"});
  ASSERT_TRUE(f.ok());
  double alpha = 0.05;
  ASSERT_TRUE(f->GetNumber("alpha", &alpha).ok());
  EXPECT_DOUBLE_EQ(alpha, 0.01);
  double delta = 0.0;
  ASSERT_TRUE(f->GetNumber("delta", &delta).ok());
  EXPECT_DOUBLE_EQ(delta, 0.1);
  // A literal that underflows to a subnormal is still a number.
  double tiny = 1.0;
  ASSERT_TRUE(f->GetNumber("tiny", &tiny).ok());
  EXPECT_GT(tiny, 0.0);
  EXPECT_LT(tiny, 1e-300);
  double neg = 0.0;
  ASSERT_TRUE(f->GetNumber("neg", &neg).ok());
  EXPECT_DOUBLE_EQ(neg, -2.0);
}

TEST(FlagsTest, NumberRejectsGarbageAndNonFiniteNamingTheFlag) {
  auto f = ParseAll({"--alpha", "abc", "--delta", "0.1x", "--validate",
                     "inf", "--diverse", "nan", "--top", ""});
  ASSERT_TRUE(f.ok());
  for (const char* name : {"alpha", "delta", "validate", "diverse", "top"}) {
    double value = 0.25;
    Status status = f->GetNumber(name, &value);
    EXPECT_FALSE(status.ok()) << name;
    EXPECT_NE(status.message().find(std::string("--") + name),
              std::string::npos)
        << status.message();
    EXPECT_DOUBLE_EQ(value, 0.25);  // untouched on error
  }
  double alpha = 0.05;
  EXPECT_NE(f->GetNumber("alpha", &alpha).message().find("'abc'"),
            std::string::npos);
  // A count flag given garbage is an error too, never the default.
  int depth = 2;
  EXPECT_FALSE(ParseAll({"--depth", "abc"})->GetCount("depth", &depth).ok());
  EXPECT_EQ(depth, 2);
}

TEST(FlagsTest, CountStoresAnInRangeIntegerAndKeepsTheDefaultWhenAbsent) {
  auto f = ParseAll({"--max-resident-bytes", "4294987296", "--shards", "0"});
  ASSERT_TRUE(f.ok());
  size_t bytes = 7;
  ASSERT_TRUE(f->GetCount("max-resident-bytes", &bytes).ok());
  EXPECT_EQ(bytes, 4294987296u);  // not narrowed to 20000
  int shards = 5;
  ASSERT_TRUE(f->GetCount("shards", &shards).ok());
  EXPECT_EQ(shards, 0);
  int absent = 9;
  ASSERT_TRUE(f->GetCount("missing", &absent).ok());
  EXPECT_EQ(absent, 9);
}

TEST(FlagsTest, CountRejectsGarbageNegativesAndOverflowNamingTheFlag) {
  auto f = ParseAll({"--shards", "abc", "--chunk-rows", "-1", "--queue",
                     "4294987296", "--repeat", "2.0", "--budget", "1e6",
                     "--cap", "10"});
  ASSERT_TRUE(f.ok());
  size_t shards = 3;
  Status status = f->GetCount("shards", &shards);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--shards"), std::string::npos);
  EXPECT_NE(status.message().find("'abc'"), std::string::npos);
  EXPECT_EQ(shards, 3u);  // untouched on error

  size_t chunk_rows = 0;
  status = f->GetCount("chunk-rows", &chunk_rows);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--chunk-rows"), std::string::npos);

  // 4294987296 fits a size_t but not an int: an error, not 20000.
  int queue = 8;
  status = f->GetCount("queue", &queue);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--queue"), std::string::npos);
  EXPECT_EQ(queue, 8);
  uint64_t wide = 0;
  EXPECT_TRUE(f->GetCount("queue", &wide).ok());
  EXPECT_EQ(wide, 4294987296u);

  size_t repeat = 0;
  EXPECT_FALSE(f->GetCount("repeat", &repeat).ok());
  uint64_t budget = 0;
  EXPECT_FALSE(f->GetCount("budget", &budget).ok());

  // An explicit bound below the type's range.
  int cap = 0;
  EXPECT_TRUE(f->GetCount("cap", &cap, 10).ok());
  EXPECT_FALSE(f->GetCount("cap", &cap, 9).ok());
  // And an explicit lower bound: 10 is in [10, max], not in [11, max].
  EXPECT_TRUE(f->GetCount("cap", &cap, UINT64_MAX, /*min=*/10).ok());
  status = f->GetCount("cap", &cap, UINT64_MAX, /*min=*/11);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("[11, "), std::string::npos)
      << status.message();
}

TEST(FlagsTest, LaterValueWins) {
  auto f = ParseAll({"--depth", "2", "--depth", "5"});
  ASSERT_TRUE(f.ok());
  int depth = 0;
  ASSERT_TRUE(f->GetCount("depth", &depth).ok());
  EXPECT_EQ(depth, 5);
}

}  // namespace
}  // namespace sdadcs::util
