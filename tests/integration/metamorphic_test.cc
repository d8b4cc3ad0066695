// Metamorphic laws of the miner: transformations of the input that the
// paper's definitions say cannot change the answer. Each law mines the
// original and the transformed dataset with the serial engine, the
// sharded:3 engine and a prepared-bundle-attached serial mine, and
// compares every pattern's counts, supports, difference, p-value and
// hypervolume in rank order.
//
//  - Row permutation. Supports, medians and root bounds are functions
//    of the multiset of rows, so the order rows arrive in is invisible.
//  - Power-of-two scaling of one non-integral continuous attribute.
//    Scaling by 2^k is exact in binary floating point, so medians, root
//    bounds (min minus a fraction of the range) and every cut scale
//    exactly, hypervolumes (ratios of lengths) stay bit-identical, and
//    the scaled attribute's interval bounds are the originals times 2^k.
//  - Group order. Swapping the two group values mirrors every support,
//    so the same patterns come back in the same order with their
//    per-group counts reversed, and the search runs the same steps
//    (every counter, partitions_evaluated included, is unchanged).
//
// Documented exceptions:
//  - Integral attributes: their root bound is min - 1 (the paper's
//    "18 < Age" rendering), which does not scale. The synth columns are
//    all integral, so the scaling law first halves the attribute (a
//    half-integer column is non-integral) and scales that copy.
//  - Exact ties: patterns with equal measure and level are ordered by
//    Itemset::Key(), which spells categorical values by dictionary code
//    (assigned in first-appearance row order) and bounds in decimal, so
//    on other inputs a transformation could reorder a tie without
//    changing any pattern. These inputs have ties, and their order
//    holds too, so the comparison here is strict.
//  - Statistics under a group swap: the chi-square sums fold the groups
//    in the other order, so diff, measure, chi2 and the p-value agree to
//    rounding only (measured within 6e-14 relative); the law compares
//    them to 1e-12 relative and everything else exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/miner.h"
#include "data/prepared.h"
#include "synth/uci_like.h"
#include "util/random.h"
#include "util/string_util.h"

namespace sdadcs {
namespace {

using core::ContrastPattern;

// Copy of `db` whose row i is the source's row order[i], with attribute
// `scale_attr` (if >= 0) multiplied by `factor`.
data::Dataset Rebuild(const data::Dataset& db,
                      const std::vector<uint32_t>& order, int scale_attr,
                      double factor) {
  data::DatasetBuilder b;
  for (size_t a = 0; a < db.num_attributes(); ++a) {
    const std::string& name = db.schema().attribute(a).name;
    if (db.is_categorical(static_cast<int>(a))) {
      b.AddCategorical(name);
    } else {
      b.AddContinuous(name);
    }
  }
  for (size_t a = 0; a < db.num_attributes(); ++a) {
    const int attr = static_cast<int>(a);
    for (uint32_t row : order) {
      if (db.is_categorical(attr)) {
        const data::CategoricalColumn& col = db.categorical(attr);
        int32_t code = col.code(row);
        if (code < 0) {
          b.AppendMissing(attr);
        } else {
          b.AppendCategorical(attr, col.ValueOf(code));
        }
      } else {
        double v = db.continuous(attr).value(row);
        b.AppendContinuous(attr, attr == scale_attr ? v * factor : v);
      }
    }
  }
  auto built = std::move(b).Build();
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

std::vector<uint32_t> Identity(size_t n) {
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  return order;
}

// Code-free rendering of one pattern: values by name, bounds exact
// (%.17g, the scaled attribute's multiplied by `unscale`), then every
// statistic the laws keep fixed.
std::string Canonical(const data::Dataset& db, const ContrastPattern& p,
                      int scaled_attr, double unscale) {
  std::string out;
  for (const core::Item& it : p.itemset.items()) {
    out += db.schema().attribute(it.attr).name;
    if (it.kind == core::Item::Kind::kCategorical) {
      out += "=" + db.categorical(it.attr).ValueOf(it.code);
    } else {
      const double s = it.attr == scaled_attr ? unscale : 1.0;
      out += util::StrFormat(":(%.17g,%.17g]", it.lo * s, it.hi * s);
    }
    out += " ";
  }
  out += "counts";
  for (double c : p.counts) out += util::StrFormat(" %.17g", c);
  out += " supports";
  for (double s : p.supports) out += util::StrFormat(" %.17g", s);
  out += util::StrFormat(" diff %.17g p %.17g hv %.17g", p.diff, p.p_value,
                         p.hypervolume);
  return out;
}

std::vector<std::string> Ranked(const data::Dataset& db,
                                const std::vector<ContrastPattern>& patterns,
                                int scaled_attr, double unscale) {
  std::vector<std::string> out;
  for (const ContrastPattern& p : patterns) {
    out.push_back(Canonical(db, p, scaled_attr, unscale));
  }
  return out;
}

enum class Engine { kSerial, kSharded3, kPrepared };

const char* EngineName(Engine e) {
  switch (e) {
    case Engine::kSerial:
      return "serial";
    case Engine::kSharded3:
      return "sharded:3";
    case Engine::kPrepared:
      return "prepared";
  }
  return "?";
}

core::MiningResult MineResult(Engine engine, const data::Dataset& db,
                              const std::string& group_attr,
                              const std::vector<std::string>& groups) {
  core::MinerConfig cfg;
  cfg.max_depth = 2;
  cfg.top_k = 50;
  core::MineRequest request;
  request.group_attr = group_attr;
  request.group_values = groups;
  data::PreparedDataset prepared(&db);
  util::StatusOr<core::MiningResult> result =
      util::Status::Internal("unset");
  switch (engine) {
    case Engine::kSerial:
      result = core::Miner(cfg).Mine(db, request);
      break;
    case Engine::kSharded3:
      result = core::Miner(cfg, 3).Mine(db, request);
      break;
    case Engine::kPrepared:
      request.prepared = &prepared;
      result = core::Miner(cfg).Mine(db, request);
      break;
  }
  EXPECT_TRUE(result.ok()) << EngineName(engine);
  if (!result.ok()) return {};
  EXPECT_EQ(result->completion, core::Completion::kComplete);
  return std::move(result).value();
}

std::vector<ContrastPattern> MineWith(Engine engine, const data::Dataset& db,
                                      const synth::NamedDataset& nd) {
  return MineResult(engine, db, nd.group_attr, nd.groups).contrasts;
}

// Every counter of a run, by name, so a mismatch says which one moved.
std::vector<std::pair<std::string, uint64_t>> CountersOf(
    const core::MiningCounters& c) {
  return {{"partitions_evaluated", c.partitions_evaluated},
          {"sdad_calls", c.sdad_calls},
          {"pruned_lookup", c.pruned_lookup},
          {"pruned_min_support", c.pruned_min_support},
          {"pruned_low_expected", c.pruned_low_expected},
          {"pruned_redundant", c.pruned_redundant},
          {"pruned_pure", c.pruned_pure},
          {"pruned_oe_measure", c.pruned_oe_measure},
          {"pruned_oe_chi2", c.pruned_oe_chi2},
          {"unproductive", c.unproductive},
          {"not_independently_productive", c.not_independently_productive},
          {"merges", c.merges},
          {"chi2_tests", c.chi2_tests},
          {"truncated_candidates", c.truncated_candidates},
          {"abandoned_candidates", c.abandoned_candidates}};
}

template <typename T>
std::vector<T> Reversed(std::vector<T> v) {
  std::reverse(v.begin(), v.end());
  return v;
}

// `a` and `b` agree to 1e-12 relative.
void ExpectClose(double a, double b, const char* what) {
  EXPECT_LE(std::fabs(a - b), 1e-12 * std::max(std::fabs(a), std::fabs(b)))
      << what << " " << a << " vs " << b;
}

constexpr Engine kEngines[] = {Engine::kSerial, Engine::kSharded3,
                               Engine::kPrepared};

class MetamorphicTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MetamorphicTest, RowPermutationLeavesEveryPatternUnchanged) {
  synth::NamedDataset nd = synth::MakeUciLike(GetParam(), /*seed=*/7);
  std::vector<uint32_t> order = Identity(nd.db.num_rows());
  util::Rng rng(1234);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  data::Dataset permuted = Rebuild(nd.db, order, -1, 1.0);

  for (Engine engine : kEngines) {
    std::vector<ContrastPattern> base = MineWith(engine, nd.db, nd);
    std::vector<ContrastPattern> moved = MineWith(engine, permuted, nd);
    ASSERT_FALSE(base.empty()) << EngineName(engine);
    EXPECT_EQ(Ranked(nd.db, base, -1, 1.0), Ranked(permuted, moved, -1, 1.0))
        << GetParam() << " " << EngineName(engine);
  }
}

TEST_P(MetamorphicTest, PowerOfTwoScalingLeavesEveryPatternUnchanged) {
  synth::NamedDataset nd = synth::MakeUciLike(GetParam(), /*seed=*/7);
  // adult's age drives its multivariate contrasts; breast's
  // bare_nuclei is the attribute with missing values.
  const std::string name =
      std::string(GetParam()) == "adult" ? "age" : "bare_nuclei";
  auto attr = nd.db.schema().IndexOf(name);
  ASSERT_TRUE(attr.ok());
  const std::vector<uint32_t> order = Identity(nd.db.num_rows());
  data::Dataset halved = Rebuild(nd.db, order, *attr, 0.5);
  ASSERT_FALSE(halved.continuous(*attr).AllIntegral());
  constexpr double kFactor = 0.25;
  data::Dataset scaled = Rebuild(halved, order, *attr, kFactor);

  for (Engine engine : kEngines) {
    std::vector<ContrastPattern> base = MineWith(engine, halved, nd);
    std::vector<ContrastPattern> moved = MineWith(engine, scaled, nd);
    ASSERT_FALSE(base.empty()) << EngineName(engine);
    EXPECT_EQ(Ranked(halved, base, *attr, 1.0),
              Ranked(scaled, moved, *attr, 1.0 / kFactor))
        << GetParam() << " " << EngineName(engine);
    // The law is not vacuous: some pattern constrains the attribute.
    bool constrains = false;
    for (const ContrastPattern& p : base) {
      constrains = constrains || p.itemset.ConstrainsAttribute(*attr);
    }
    EXPECT_TRUE(constrains) << GetParam() << " " << EngineName(engine);
  }
}

TEST_P(MetamorphicTest, SwappingGroupOrderMirrorsEveryPattern) {
  synth::NamedDataset nd = synth::MakeUciLike(GetParam(), /*seed=*/7);
  ASSERT_EQ(nd.groups.size(), 2u);
  const std::vector<std::string> swapped = {nd.groups[1], nd.groups[0]};

  for (Engine engine : kEngines) {
    SCOPED_TRACE(std::string(GetParam()) + " " + EngineName(engine));
    core::MiningResult base =
        MineResult(engine, nd.db, nd.group_attr, nd.groups);
    core::MiningResult mirrored =
        MineResult(engine, nd.db, nd.group_attr, swapped);
    ASSERT_FALSE(base.contrasts.empty());
    ASSERT_EQ(base.contrasts.size(), mirrored.contrasts.size());
    for (size_t i = 0; i < base.contrasts.size(); ++i) {
      SCOPED_TRACE("rank " + std::to_string(i));
      const ContrastPattern& a = base.contrasts[i];
      const ContrastPattern& b = mirrored.contrasts[i];
      EXPECT_EQ(a.itemset.Key(), b.itemset.Key());
      EXPECT_EQ(a.counts, Reversed(b.counts));
      EXPECT_EQ(a.supports, Reversed(b.supports));
      EXPECT_EQ(a.hypervolume, b.hypervolume);
      ExpectClose(a.diff, b.diff, "diff");
      ExpectClose(a.measure, b.measure, "measure");
      ExpectClose(a.chi2, b.chi2, "chi2");
      ExpectClose(a.p_value, b.p_value, "p_value");
    }
    EXPECT_EQ(CountersOf(base.counters), CountersOf(mirrored.counters));
  }
}

INSTANTIATE_TEST_SUITE_P(SynthDatasets, MetamorphicTest,
                         ::testing::Values("adult", "breast"));

}  // namespace
}  // namespace sdadcs
