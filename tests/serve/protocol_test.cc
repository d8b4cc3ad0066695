// The versioned wire protocol: request parsing, the error taxonomy, and
// the rendering helpers every front end shares.

#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/interest.h"

namespace sdadcs::serve {
namespace {

JsonValue Parse(const std::string& text) {
  auto parsed = JsonValue::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return *parsed;
}

TEST(WireErrorTest, LiftsFieldFromColonConvention) {
  WireError error = WireError::FromStatus(
      util::Status::InvalidArgument("group_attr: no such attribute 'x'"));
  EXPECT_EQ(error.code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(error.field, "group_attr");
  EXPECT_EQ(error.message, "group_attr: no such attribute 'x'");
}

TEST(WireErrorTest, LiftsFieldFromMustBeConvention) {
  WireError error = WireError::FromStatus(
      util::Status::InvalidArgument("max_depth must be >= 1"));
  EXPECT_EQ(error.field, "max_depth");
}

TEST(WireErrorTest, NoFieldWhenMessageHasNoConvention) {
  WireError error = WireError::FromStatus(
      util::Status::InvalidArgument("something went sideways"));
  EXPECT_EQ(error.field, "");
}

TEST(WireErrorTest, FieldHintWinsOverExtraction) {
  WireError error = WireError::FromStatus(
      util::Status::InvalidArgument("group_attr: nope"), "engine");
  EXPECT_EQ(error.field, "engine");
}

TEST(WireErrorTest, StatusCodeMapping) {
  EXPECT_EQ(WireError::FromStatus(util::Status::NotFound("x")).code,
            ErrorCode::kNotFound);
  EXPECT_EQ(WireError::FromStatus(util::Status::Internal("x")).code,
            ErrorCode::kInternal);
  EXPECT_EQ(
      WireError::FromStatus(util::Status::FailedPrecondition("x")).code,
      ErrorCode::kInvalidArgument);
  EXPECT_EQ(WireError::FromStatus(util::Status::IoError("x")).code,
            ErrorCode::kInvalidArgument);
}

TEST(WireErrorTest, JsonAndTextRenderings) {
  WireError error{ErrorCode::kInvalidArgument, "engine", "unknown engine"};
  EXPECT_EQ(error.ToJson(),
            "{\"code\":\"invalid_argument\",\"field\":\"engine\","
            "\"message\":\"unknown engine\"}");
  EXPECT_EQ(error.ToText(), "invalid_argument[engine]: unknown engine");

  WireError fieldless{ErrorCode::kParseError, "", "bad json"};
  EXPECT_EQ(fieldless.ToJson(),
            "{\"code\":\"parse_error\",\"message\":\"bad json\"}");
  EXPECT_EQ(fieldless.ToText(), "parse_error: bad json");
}

TEST(ProtocolVersionTest, UnpinnedAndMatchingPass) {
  EXPECT_FALSE(CheckProtocolVersion(Parse("{\"op\":\"ping\"}")).has_value());
  EXPECT_FALSE(
      CheckProtocolVersion(Parse("{\"v\":1,\"op\":\"ping\"}")).has_value());
}

TEST(ProtocolVersionTest, MismatchRejected) {
  auto error = CheckProtocolVersion(Parse("{\"v\":2,\"op\":\"ping\"}"));
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, ErrorCode::kUnsupportedVersion);
  EXPECT_EQ(error->field, "v");

  // A non-numeric pin is a mismatch, not silently current-version.
  EXPECT_TRUE(CheckProtocolVersion(Parse("{\"v\":\"1\"}")).has_value());
}

TEST(ParseMineCallTest, MinimalRequest) {
  MineFrame frame;
  auto error = ParseMineCall(
      Parse("{\"op\":\"mine\",\"dataset\":\"d\",\"group\":\"class\"}"),
      &frame);
  EXPECT_FALSE(error.has_value());
  EXPECT_EQ(frame.call.dataset, "d");
  EXPECT_EQ(frame.call.group_attr, "class");
  EXPECT_TRUE(frame.call.use_cache);
  EXPECT_FALSE(frame.emit_patterns);
}

TEST(ParseMineCallTest, MissingRequiredFieldsNameTheField) {
  MineFrame frame;
  auto error = ParseMineCall(Parse("{\"op\":\"mine\"}"), &frame);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(error->field, "dataset");

  error = ParseMineCall(Parse("{\"op\":\"mine\",\"dataset\":\"d\"}"), &frame);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->field, "group");
}

TEST(ParseMineCallTest, FullConfigRoundTrips) {
  MineFrame frame;
  auto error = ParseMineCall(
      Parse("{\"op\":\"mine\",\"dataset\":\"d\",\"group\":\"g\","
            "\"groups\":[\"a\",\"b\"],\"engine\":\"serial\","
            "\"deadline_ms\":250,\"node_budget\":1000,\"cache\":false,"
            "\"emit\":\"patterns\",\"tenant\":\"team-a\",\"id\":\"42\","
            "\"config\":{\"depth\":3,\"delta\":0.2,\"alpha\":0.01,"
            "\"top\":7,\"measure\":\"pr\"}}"),
      &frame);
  ASSERT_FALSE(error.has_value()) << error->ToText();
  EXPECT_EQ(frame.call.group_values,
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(frame.call.engine, core::EngineKind::kSerial);
  EXPECT_EQ(frame.deadline_ms, 250);
  EXPECT_EQ(frame.node_budget, 1000u);
  EXPECT_FALSE(frame.call.use_cache);
  EXPECT_TRUE(frame.emit_patterns);
  EXPECT_EQ(frame.tenant, "team-a");
  EXPECT_EQ(frame.id, "42");
  EXPECT_EQ(frame.call.config.max_depth, 3);
  EXPECT_EQ(frame.call.config.top_k, 7);
  EXPECT_EQ(frame.call.config.measure, core::MeasureKind::kPurityRatio);
}

TEST(ParseMineCallTest, ShardedEngineSpecCarriesCount) {
  MineFrame frame;
  auto error = ParseMineCall(
      Parse("{\"op\":\"mine\",\"dataset\":\"d\",\"group\":\"g\","
            "\"engine\":\"sharded:4\"}"),
      &frame);
  ASSERT_FALSE(error.has_value()) << error->ToText();
  EXPECT_EQ(frame.call.engine, core::EngineKind::kSharded);
  EXPECT_EQ(frame.call.shards, 4u);

  // Bare name: the count defers to the server's deployment default.
  error = ParseMineCall(
      Parse("{\"op\":\"mine\",\"dataset\":\"d\",\"group\":\"g\","
            "\"engine\":\"sharded\"}"),
      &frame);
  ASSERT_FALSE(error.has_value());
  EXPECT_EQ(frame.call.engine, core::EngineKind::kSharded);
  EXPECT_EQ(frame.call.shards, 0u);

  error = ParseMineCall(
      Parse("{\"op\":\"mine\",\"dataset\":\"d\",\"group\":\"g\","
            "\"engine\":\"sharded:0\"}"),
      &frame);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->field, "engine");
}

TEST(RenderEnginesTest, ListsRegistryAndAliases) {
  JsonObjectWriter w;
  RenderEngines(&w);
  std::string body = w.Str();
  EXPECT_NE(body.find("\"engines\":["), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"serial\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"sharded\""), std::string::npos);
  EXPECT_NE(body.find("\"aliases\":[\"auto\",\"sharded:<n>\"]"),
            std::string::npos);
  // The body itself must be splice-safe JSON.
  auto parsed = JsonValue::Parse(body);
  ASSERT_TRUE(parsed.ok());
  const auto* engines = parsed->Find("engines");
  ASSERT_NE(engines, nullptr);
  EXPECT_TRUE(engines->IsArray());
  EXPECT_GE(engines->AsArray().size(), 10u);
}

TEST(ParseMineCallTest, UnknownMeasureAndEngineAreErrors) {
  MineFrame frame;
  auto error = ParseMineCall(
      Parse("{\"op\":\"mine\",\"dataset\":\"d\",\"group\":\"g\","
            "\"config\":{\"measure\":\"bogus\"}}"),
      &frame);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->field, "config.measure");

  error = ParseMineCall(
      Parse("{\"op\":\"mine\",\"dataset\":\"d\",\"group\":\"g\","
            "\"engine\":\"warp\"}"),
      &frame);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->field, "engine");
}

TEST(ParseMineCallTest, BurstAboveOneIsRejected) {
  MineFrame frame;
  auto error = ParseMineCall(
      Parse("{\"op\":\"mine\",\"dataset\":\"d\",\"group\":\"g\","
            "\"burst\":4}"),
      &frame);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->ToText(),
            "invalid_argument[burst]: no transport has burst: pipeline "
            "requests");

  // A single copy is what every mine is anyway.
  error = ParseMineCall(
      Parse("{\"op\":\"mine\",\"dataset\":\"d\",\"group\":\"g\","
            "\"burst\":1}"),
      &frame);
  EXPECT_FALSE(error.has_value());
}

// Every integer field is range-checked before it reaches a narrower C++
// type: a value that would wrap, truncate or overflow is an error naming
// the field, never a different request.
TEST(ParseMineCallTest, IntegerFieldsAreRangeChecked) {
  const std::string head =
      "{\"op\":\"mine\",\"dataset\":\"d\",\"group\":\"g\",";
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"\"config\":{\"depth\":4294967298}", "config.depth"},
      {"\"config\":{\"depth\":2.5}", "config.depth"},
      {"\"config\":{\"depth\":-1}", "config.depth"},
      {"\"config\":{\"depth\":\"2\"}", "config.depth"},
      {"\"config\":{\"top\":1e10}", "config.top"},
      {"\"node_budget\":-1", "node_budget"},
      {"\"node_budget\":0.5", "node_budget"},
      {"\"node_budget\":1e19", "node_budget"},
      {"\"deadline_ms\":1e30", "deadline_ms"},
      {"\"deadline_ms\":-10", "deadline_ms"},
  };
  for (const auto& [fields, field] : bad) {
    MineFrame frame;
    auto error = ParseMineCall(Parse(head + fields + "}"), &frame);
    ASSERT_TRUE(error.has_value()) << fields;
    EXPECT_EQ(error->code, ErrorCode::kInvalidArgument) << fields;
    EXPECT_EQ(error->field, field) << fields;
  }

  // In range, including integral values written with an exponent.
  MineFrame frame;
  auto error = ParseMineCall(
      Parse(head +
            "\"node_budget\":1e6,\"deadline_ms\":0,"
            "\"config\":{\"depth\":3,\"top\":2147483647}}"),
      &frame);
  ASSERT_FALSE(error.has_value()) << error->ToText();
  EXPECT_EQ(frame.node_budget, 1000000u);
  EXPECT_EQ(frame.deadline_ms, 0);
  EXPECT_EQ(frame.call.config.max_depth, 3);
  EXPECT_EQ(frame.call.config.top_k, 2147483647);
}

// "kernel" is no longer a config key (the host picks the scan kernels),
// so a client that still sends it, with any value, parses like any
// other unknown key: ignored.
TEST(ParseMineCallTest, RetiredKernelKeyIsIgnored) {
  MineFrame frame;
  auto error = ParseMineCall(
      Parse("{\"op\":\"mine\",\"dataset\":\"d\",\"group\":\"g\","
            "\"config\":{\"depth\":3,\"kernel\":\"sse9\"}}"),
      &frame);
  ASSERT_FALSE(error.has_value()) << error->ToText();
  EXPECT_EQ(frame.call.config.max_depth, 3);
}

TEST(EnumParsersTest, MeasureNames) {
  EXPECT_EQ(*MeasureFromString("diff"), core::MeasureKind::kSupportDiff);
  EXPECT_EQ(*MeasureFromString("entropy"),
            core::MeasureKind::kEntropyPurity);
  EXPECT_FALSE(MeasureFromString("").ok());
}

TEST(EnvelopeTest, VersionLeadsEveryResponse) {
  EXPECT_EQ(ResponseEnvelope(true, "ping").Str(),
            "{\"v\":1,\"ok\":true,\"op\":\"ping\"}");
  EXPECT_EQ(ResponseEnvelope(true, "mine", "7").Str(),
            "{\"v\":1,\"ok\":true,\"op\":\"mine\",\"id\":\"7\"}");
  WireError error{ErrorCode::kUnknownOp, "op", "unknown op 'x'"};
  EXPECT_EQ(ErrorResponse("x", error).Str(),
            "{\"v\":1,\"ok\":false,\"op\":\"x\",\"error\":{\"code\":"
            "\"unknown_op\",\"field\":\"op\",\"message\":"
            "\"unknown op 'x'\"}}");
}

TEST(RenderMineOutcomeTest, ErrorVerdictCarriesStructuredError) {
  MineOutcome outcome;
  outcome.verdict = Verdict::kError;
  outcome.status = util::Status::NotFound("dataset 'd' is not loaded");
  JsonObjectWriter w;
  RenderMineOutcome(outcome, "", &w);
  std::string rendered = w.Str();
  EXPECT_NE(rendered.find("\"verdict\":\"error\""), std::string::npos);
  EXPECT_NE(rendered.find("\"error\":{\"code\":\"not_found\""),
            std::string::npos);
}

}  // namespace
}  // namespace sdadcs::serve
