// MiningSession::Begin error paths: every way a request can be
// malformed comes back as InvalidArgument naming the offending field —
// on the per-call resolution path and on the prepared-artifact path
// alike.

#include "engine/session.h"

#include <cstdio>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/miner.h"
#include "data/prepared.h"
#include "data/spill.h"
#include "synth/uci_like.h"
#include "util/status.h"

namespace sdadcs::engine {
namespace {

bool MentionsField(const util::Status& status, const std::string& field) {
  return status.ToString().find(field) != std::string::npos;
}

TEST(MiningSessionTest, GroupAttributeInUniverseIsInvalidArgument) {
  synth::NamedDataset nd = synth::MakeUciLike("adult", /*seed=*/3);
  core::MinerConfig config;
  config.attributes = {nd.group_attr};
  core::MineRequest request;
  request.group_attr = nd.group_attr;

  auto session = MiningSession::Begin(nd.db, config, request);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(MentionsField(session.status(), "attributes"))
      << session.status().ToString();
}

TEST(MiningSessionTest, UnknownGroupValueIsInvalidArgument) {
  synth::NamedDataset nd = synth::MakeUciLike("adult", /*seed=*/3);
  core::MinerConfig config;
  core::MineRequest request;
  request.group_attr = nd.group_attr;
  request.group_values = {nd.groups[0], "no-such-value"};

  auto session = MiningSession::Begin(nd.db, config, request);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(MentionsField(session.status(), "group_values"))
      << session.status().ToString();

  // Same classification when the groups resolve through a prepared
  // bundle (which reports one flat data-layer status internally).
  data::PreparedDataset prepared(&nd.db);
  request.prepared = &prepared;
  auto warm = MiningSession::Begin(nd.db, config, request);
  ASSERT_FALSE(warm.ok());
  EXPECT_EQ(warm.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(MentionsField(warm.status(), "group_values"))
      << warm.status().ToString();
}

TEST(MiningSessionTest, UnknownGroupAttributeIsInvalidArgument) {
  synth::NamedDataset nd = synth::MakeUciLike("adult", /*seed=*/3);
  core::MinerConfig config;
  core::MineRequest request;
  request.group_attr = "no-such-attribute";

  auto session = MiningSession::Begin(nd.db, config, request);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(MentionsField(session.status(), "group_attr"))
      << session.status().ToString();

  data::PreparedDataset prepared(&nd.db);
  request.prepared = &prepared;
  auto warm = MiningSession::Begin(nd.db, config, request);
  ASSERT_FALSE(warm.ok());
  EXPECT_EQ(warm.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(MentionsField(warm.status(), "group_attr"))
      << warm.status().ToString();
}

TEST(MiningSessionTest, EmptyUniverseIsInvalidArgument) {
  // A dataset holding only the group attribute leaves nothing to mine.
  data::DatasetBuilder b;
  int g = b.AddCategorical("label");
  for (int i = 0; i < 10; ++i) {
    b.AppendCategorical(g, i % 2 == 0 ? "yes" : "no");
  }
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());

  core::MinerConfig config;
  core::MineRequest request;
  request.group_attr = "label";
  auto session = MiningSession::Begin(*db, config, request);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(MentionsField(session.status(), "attributes"))
      << session.status().ToString();
}

// A spill file whose column stats are finite but whose values hold
// -inf opens (the values are read lazily), and the mine over it is
// refused where the root bounds come out infinite: no row may lie
// outside them.
TEST(MiningSessionTest, InfiniteValueBehindFiniteSpillStatsIsInvalid) {
  std::string bytes;
  auto put = [&bytes](const auto& v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto put_str = [&](const std::string& s) {
    put(static_cast<uint32_t>(s.size()));
    bytes += s;
  };
  // Header: magic, version 1, 4 rows, 2 attributes, default chunk rows.
  bytes = "SDCSPIL1";
  for (uint64_t v : {uint64_t{1}, uint64_t{4}, uint64_t{2}, uint64_t{0}}) {
    put(v);
  }
  // g: categorical {a, b}, codes at byte 104; x: continuous with stats
  // [1, 4], values at byte 120.
  put_str("g");
  put(uint8_t{0});
  put(uint32_t{2});
  put_str("a");
  put_str("b");
  put(uint64_t{104});
  put_str("x");
  put(uint8_t{1});
  put(1.0);
  put(4.0);
  put(uint8_t{1});
  put(uint64_t{120});
  bytes.resize(104, '\0');
  for (int32_t code : {0, 1, 0, 1}) put(code);
  for (double v : {1.0, -std::numeric_limits<double>::infinity(), 3.0, 4.0}) {
    put(v);
  }
  const std::string path = testing::TempDir() + "session_test_inf.spill";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  auto db = data::OpenSpill(path);
  std::remove(path.c_str());
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  core::MinerConfig config;
  core::MineRequest request;
  request.group_attr = "g";
  auto session = MiningSession::Begin(*db, config, request);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(MentionsField(session.status(), "'x'"))
      << session.status().ToString();
}

TEST(MiningSessionTest, PreparedBeginMatchesColdBegin) {
  synth::NamedDataset nd = synth::MakeUciLike("adult", /*seed=*/3);
  core::MinerConfig config;
  core::MineRequest request;
  request.group_attr = nd.group_attr;
  request.group_values = nd.groups;

  auto cold = MiningSession::Begin(nd.db, config, request);
  ASSERT_TRUE(cold.ok());

  data::PreparedDataset prepared(&nd.db);
  request.prepared = &prepared;
  auto warm = MiningSession::Begin(nd.db, config, request);
  ASSERT_TRUE(warm.ok());

  EXPECT_EQ(warm->attributes(), cold->attributes());
  EXPECT_EQ(warm->group_sizes(), cold->group_sizes());
  ASSERT_EQ(warm->root_bounds().size(), cold->root_bounds().size());
  for (const auto& [attr, bounds] : cold->root_bounds()) {
    auto it = warm->root_bounds().find(attr);
    ASSERT_NE(it, warm->root_bounds().end());
    EXPECT_EQ(it->second.lo, bounds.lo);
    EXPECT_EQ(it->second.hi, bounds.hi);
  }
  // The second warm Begin reuses the cached group artifact.
  auto again = MiningSession::Begin(nd.db, config, request);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(prepared.stats().group_builds, 1u);
  EXPECT_GT(prepared.stats().hits, 0u);
}

}  // namespace
}  // namespace sdadcs::engine
