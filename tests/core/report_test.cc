#include "core/report.h"

#include <gtest/gtest.h>

#include "common/requests.h"
#include "core/miner.h"
#include "serve/ndjson.h"
#include "synth/simulated.h"
#include "util/logging.h"

namespace sdadcs::core {
namespace {

using test_support::GroupsRequest;

struct Fixture {
  data::Dataset db;
  data::GroupInfo gi;
  MiningResult result;
};

Fixture MakeFixture() {
  Fixture f{synth::MakeSimulated4(1200), {}, {}};
  auto gi = data::GroupInfo::Create(f.db, 0);
  SDADCS_CHECK(gi.ok());
  f.gi = std::move(gi).value();
  MinerConfig cfg;
  cfg.max_depth = 2;
  auto result = Miner(cfg).Mine(f.db, GroupsRequest(f.gi));
  SDADCS_CHECK(result.ok());
  f.result = std::move(result).value();
  SDADCS_CHECK(!f.result.contrasts.empty());
  return f;
}

TEST(FormatPatternsTableTest, ContainsHeaderAndRows) {
  Fixture f = MakeFixture();
  std::string table =
      FormatPatternsTable(f.db, f.gi, f.result.contrasts, 5);
  EXPECT_NE(table.find("rank"), std::string::npos);
  EXPECT_NE(table.find("diff"), std::string::npos);
  EXPECT_NE(table.find(f.gi.group_name(0).substr(0, 6)),
            std::string::npos);
  EXPECT_NE(table.find("   1  "), std::string::npos);
}

TEST(FormatPatternsTableTest, LimitTruncatesWithEllipsisLine) {
  Fixture f = MakeFixture();
  if (f.result.contrasts.size() < 2) GTEST_SKIP();
  std::string table =
      FormatPatternsTable(f.db, f.gi, f.result.contrasts, 1);
  EXPECT_NE(table.find("more"), std::string::npos);
}

TEST(PatternsToCsvTest, ParsesBackAsCsv) {
  Fixture f = MakeFixture();
  std::string csv = PatternsToCsv(f.db, f.gi, f.result.contrasts);
  // Header + one line per pattern.
  size_t lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(lines, f.result.contrasts.size() + 1);
  EXPECT_NE(csv.find("diff,purity,p_value"), std::string::npos);
  EXPECT_NE(csv.find("Attr1"), std::string::npos);
}

TEST(PatternsToCsvTest, EmptyListHasHeaderOnly) {
  Fixture f = MakeFixture();
  std::string csv = PatternsToCsv(f.db, f.gi, {});
  // Group column order follows the GroupInfo; compare order-agnostic.
  std::string expected = "supp_" + f.gi.group_name(0) + ",supp_" +
                         f.gi.group_name(1) + ",diff,purity,p_value\n";
  EXPECT_EQ(csv, expected);
}

TEST(PatternsToJsonTest, WellFormedBrackets) {
  Fixture f = MakeFixture();
  std::string json = PatternsToJson(f.db, f.gi, f.result.contrasts);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"items\""), std::string::npos);
  EXPECT_NE(json.find("\"supports\""), std::string::npos);
  EXPECT_NE(json.find("\"p_value\""), std::string::npos);
  // Balanced braces.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(PatternsToJsonTest, InfinityBecomesNull) {
  Fixture f = MakeFixture();
  ContrastPattern p;
  p.itemset = Itemset({Item::Interval(
      1, -std::numeric_limits<double>::infinity(), 0.5)});
  p.counts = {10, 10};
  p.ComputeStats(f.gi, MeasureKind::kSupportDiff);
  std::string json = PatternsToJson(f.db, f.gi, {p});
  EXPECT_NE(json.find("\"lo\": null"), std::string::npos);
}

TEST(PatternsToJsonTest, RendersOneLine) {
  Fixture f = MakeFixture();
  ASSERT_GE(f.result.contrasts.size(), 2u);
  std::string json = PatternsToJson(f.db, f.gi, f.result.contrasts);
  EXPECT_EQ(json.find('\n'), std::string::npos) << json;
  auto parsed = serve::JsonValue::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->AsArray().size(), f.result.contrasts.size());
}

TEST(PatternsToJsonTest, ControlBytesInValuesRoundTrip) {
  // CSV ingest accepts RFC-4180 quoted fields, so attribute names,
  // values and group names can carry tabs, CRs and other bytes below
  // 0x20; the JSON must escape every one of them.
  const std::string attr_name = "note\tcol";
  const std::string value = "a\tb\rc\x01";
  const std::string group_name = "g\r1";
  data::DatasetBuilder b;
  int g = b.AddCategorical("group");
  int note = b.AddCategorical(attr_name);
  for (int r = 0; r < 4; ++r) {
    b.AppendCategorical(g, r % 2 == 0 ? group_name : "g2");
    b.AppendCategorical(note, r < 2 ? value : "plain");
  }
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  auto gi = data::GroupInfo::Create(*db, g);
  ASSERT_TRUE(gi.ok());
  ContrastPattern p;
  p.itemset = Itemset({Item::Categorical(
      note, db->categorical(note).CodeOf(value))});
  p.counts = {1, 1};
  p.ComputeStats(*gi, MeasureKind::kSupportDiff);

  std::string json = PatternsToJson(*db, *gi, {p});
  for (char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << json;
  }
  auto parsed = serve::JsonValue::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message() << ": " << json;
  ASSERT_EQ(parsed->AsArray().size(), 1u);
  const serve::JsonValue& pattern = parsed->AsArray()[0];
  const serve::JsonValue* items = pattern.Find("items");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->AsArray().size(), 1u);
  EXPECT_EQ(items->AsArray()[0].GetString("attr"), attr_name);
  EXPECT_EQ(items->AsArray()[0].GetString("value"), value);
  const serve::JsonValue* supports = pattern.Find("supports");
  ASSERT_NE(supports, nullptr);
  EXPECT_NE(supports->Find(group_name), nullptr);
}

TEST(SummarizeRunTest, MentionsCountsAndGroups) {
  Fixture f = MakeFixture();
  std::string summary = SummarizeRun(f.result);
  EXPECT_NE(summary.find("contrasts"), std::string::npos);
  EXPECT_NE(summary.find("Group1"), std::string::npos);
  EXPECT_NE(summary.find("partitions evaluated"), std::string::npos);
}

}  // namespace
}  // namespace sdadcs::core
