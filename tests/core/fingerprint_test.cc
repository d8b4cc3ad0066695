// MinerConfig::Fingerprint and the canonical request key: every semantic
// knob must perturb the hash, non-semantic knobs must not, and the
// 128-bit request key must separate dataset versions, group specs and
// engines.

#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/request_key.h"
#include "gtest/gtest.h"

namespace sdadcs::core {
namespace {

TEST(ConfigFingerprintTest, DeterministicAndCopyStable) {
  MinerConfig a;
  MinerConfig b = a;
  EXPECT_EQ(a.Fingerprint(), a.Fingerprint());
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

// Every field Validate() range-checks — alpha, delta, max_depth,
// sdad_max_level, top_k, min_coverage, merge_alpha — plus every other
// semantic knob must change the fingerprint, and the perturbed hashes
// must be pairwise distinct (the per-field tags exist exactly so that
// "alpha=0.2" cannot alias "delta=0.2").
TEST(ConfigFingerprintTest, EverySemanticFieldPerturbsTheHash) {
  using Mutator = void (*)(MinerConfig*);
  const std::vector<std::pair<std::string, Mutator>> mutations = {
      {"alpha", [](MinerConfig* c) { c->alpha = 0.01; }},
      {"delta", [](MinerConfig* c) { c->delta = 0.25; }},
      {"max_depth", [](MinerConfig* c) { c->max_depth = 3; }},
      {"sdad_max_level", [](MinerConfig* c) { c->sdad_max_level = 2; }},
      {"top_k", [](MinerConfig* c) { c->top_k = 10; }},
      {"min_coverage", [](MinerConfig* c) { c->min_coverage = 50; }},
      {"merge_alpha", [](MinerConfig* c) { c->merge_alpha = 0.2; }},
      {"measure",
       [](MinerConfig* c) { c->measure = MeasureKind::kEntropyPurity; }},
      {"bonferroni",
       [](MinerConfig* c) { c->bonferroni = BonferroniMode::kNone; }},
      {"split", [](MinerConfig* c) { c->split = SplitKind::kMean; }},
      {"optimistic_pruning",
       [](MinerConfig* c) { c->optimistic_pruning = false; }},
      {"meaningful_pruning",
       [](MinerConfig* c) { c->meaningful_pruning = false; }},
      {"redundancy_pruning",
       [](MinerConfig* c) { c->redundancy_pruning = false; }},
      {"pure_space_pruning",
       [](MinerConfig* c) { c->pure_space_pruning = false; }},
      {"chi_bound_pruning",
       [](MinerConfig* c) { c->chi_bound_pruning = false; }},
      {"productivity_filter",
       [](MinerConfig* c) { c->productivity_filter = false; }},
      {"merge_spaces", [](MinerConfig* c) { c->merge_spaces = false; }},
      {"independently_productive_filter",
       [](MinerConfig* c) { c->independently_productive_filter = false; }},
      {"max_candidates_per_level",
       [](MinerConfig* c) { c->max_candidates_per_level = 1000; }},
      {"attributes", [](MinerConfig* c) { c->attributes = {"age"}; }},
  };

  const uint64_t base = MinerConfig{}.Fingerprint();
  std::set<uint64_t> seen = {base};
  for (const auto& [field, mutate] : mutations) {
    MinerConfig mutated;
    mutate(&mutated);
    const uint64_t h = mutated.Fingerprint();
    EXPECT_NE(h, base) << field << " does not perturb Fingerprint()";
    EXPECT_TRUE(seen.insert(h).second)
        << field << " collides with another single-field mutation";
  }
}

TEST(ConfigFingerprintTest, NanMergeAlphaIsCanonical) {
  MinerConfig a;
  a.merge_alpha = std::nan("1");
  MinerConfig b;
  b.merge_alpha = std::nan("0x7ff");  // different payload, same meaning
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  MinerConfig set;
  set.merge_alpha = 0.05;
  EXPECT_NE(a.Fingerprint(), set.Fingerprint());
}

TEST(ConfigFingerprintTest, AttributeOrderAndContentMatter) {
  MinerConfig ab;
  ab.attributes = {"a", "b"};
  MinerConfig ba;
  ba.attributes = {"b", "a"};
  MinerConfig joined;
  joined.attributes = {"ab"};
  EXPECT_NE(ab.Fingerprint(), ba.Fingerprint());
  EXPECT_NE(ab.Fingerprint(), joined.Fingerprint());
}

TEST(RequestKeyTest, SeparatesEveryDimension) {
  const MinerConfig config;
  const uint64_t ds = DatasetFingerprint("adult", 1);
  const RequestKey base = CanonicalRequestKey(ds, config, "class", {},
                                              EngineKind::kSerial);

  EXPECT_EQ(base, CanonicalRequestKey(ds, config, "class", {},
                                      EngineKind::kSerial));

  // Dataset version: same name, new load generation.
  EXPECT_NE(base,
            CanonicalRequestKey(DatasetFingerprint("adult", 2), config,
                                "class", {}, EngineKind::kSerial));
  // Config.
  MinerConfig other = config;
  other.top_k = 7;
  EXPECT_NE(base, CanonicalRequestKey(ds, other, "class", {},
                                      EngineKind::kSerial));
  // Group attribute.
  EXPECT_NE(base, CanonicalRequestKey(ds, config, "sex", {},
                                      EngineKind::kSerial));
  // Group values, including their order (it fixes group numbering and
  // therefore the sign of support differences).
  const RequestKey ab = CanonicalRequestKey(ds, config, "class", {"a", "b"},
                                            EngineKind::kSerial);
  const RequestKey ba = CanonicalRequestKey(ds, config, "class", {"b", "a"},
                                            EngineKind::kSerial);
  EXPECT_NE(base, ab);
  EXPECT_NE(ab, ba);
  // Engine: serial, parallel and sharded return the same bytes and are
  // one cache universe; beam is another, and an unresolved kAuto hashes
  // apart from both.
  const RequestKey parallel = CanonicalRequestKey(ds, config, "class", {},
                                                  EngineKind::kParallel);
  const RequestKey sharded = CanonicalRequestKey(ds, config, "class", {},
                                                 EngineKind::kSharded);
  const RequestKey beam = CanonicalRequestKey(ds, config, "class", {},
                                              EngineKind::kBeam);
  const RequestKey automatic = CanonicalRequestKey(ds, config, "class", {},
                                                   EngineKind::kAuto);
  EXPECT_EQ(base, parallel);
  EXPECT_EQ(base, sharded);
  EXPECT_NE(base, beam);
  EXPECT_NE(base, automatic);
  EXPECT_NE(beam, automatic);
}

TEST(RequestKeyTest, DatasetFingerprintSeparatesNameAndGeneration) {
  EXPECT_NE(DatasetFingerprint("adult", 1), DatasetFingerprint("adult", 2));
  EXPECT_NE(DatasetFingerprint("adult", 1), DatasetFingerprint("breast", 1));
  EXPECT_EQ(DatasetFingerprint("adult", 1), DatasetFingerprint("adult", 1));
}

TEST(RequestKeyTest, ToStringIsStableHex) {
  RequestKey key{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(key.ToString(), "0123456789abcdef:fedcba9876543210");
}

}  // namespace
}  // namespace sdadcs::core
