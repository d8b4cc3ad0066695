#include "core/productivity.h"

#include <algorithm>
#include <cmath>

#include "core/pruning.h"
#include "core/support.h"
#include "stats/chi_squared.h"
#include "stats/fisher.h"
#include "util/logging.h"

namespace sdadcs::core {

namespace {

// Chi-square (or Fisher when sparse) test that parts `a` and `b` of
// `pattern` (a ∪ b) are positively dependent within group `g`. The 2x2
// table of g's base rows follows from base counts: a row matches both
// parts exactly when it matches the pattern, and every row of g falls in
// one cell. The counts are exact small-integer doubles, so the table
// equals a scan of the base rows bit for bit.
bool PartsDependentInGroup(MiningContext& ctx, const Itemset& pattern,
                           const Itemset& a, const Itemset& b, int g,
                           double alpha) {
  const double count_a = ctx.BaseCounts(a)[g];
  const double count_b = ctx.BaseCounts(b)[g];
  const double n11 = ctx.BaseCounts(pattern)[g];  // a & b
  const double n10 = count_a - n11;               // a & !b
  const double n01 = count_b - n11;               // !a & b
  const double n00 =
      static_cast<double>(ctx.gi->group_size(g)) - count_a - count_b + n11;
  double total = n11 + n10 + n01 + n00;
  if (total <= 0.0) return false;
  double expected = (n11 + n10) * (n11 + n01) / total;
  if (n11 <= expected) return false;  // not positively dependent

  stats::ContingencyTable t(2, 2);
  t.set_cell(0, 0, n11);
  t.set_cell(0, 1, n10);
  t.set_cell(1, 0, n01);
  t.set_cell(1, 1, n00);
  ++ctx.counters->chi2_tests;
  if (t.MinExpected() < 5.0) {
    // Sparse table: use the exact test in the positive direction.
    double p = stats::FisherExactGreater(
        static_cast<long long>(n11), static_cast<long long>(n10),
        static_cast<long long>(n01), static_cast<long long>(n00));
    return p < alpha;
  }
  stats::ChiSquaredResult res = stats::ChiSquaredTest(t);
  return res.valid && res.p_value < alpha;
}

}  // namespace

bool IsProductive(MiningContext& ctx, const ContrastPattern& pattern) {
  const size_t n = pattern.itemset.size();
  if (n < 2) return true;
  SDADCS_CHECK(n < 20);

  // Groups attaining the pattern's extreme supports: x dominant, y weak
  // (the paper's |g_x| > |g_y| convention reduces to this for 2 groups).
  size_t gx = 0;
  size_t gy = 0;
  for (size_t g = 1; g < pattern.supports.size(); ++g) {
    if (pattern.supports[g] > pattern.supports[gx]) gx = g;
    if (pattern.supports[g] < pattern.supports[gy]) gy = g;
  }
  const double diff_c = pattern.diff;
  const double alpha = ctx.cfg->alpha;

  // Every unordered binary partition once: masks with bit 0 set.
  const uint32_t full = (1u << n) - 1;
  for (uint32_t mask = 1; mask < full; mask += 2) {
    std::vector<Item> part_a;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) part_a.push_back(pattern.itemset.item(i));
    }
    Itemset a(std::move(part_a));
    Itemset b = pattern.itemset.Complement(a);

    const std::vector<double>& sa = ctx.BaseSupports(a);
    const std::vector<double>& sb = ctx.BaseSupports(b);
    double expected_diff = sa[gx] * sb[gx] - sa[gy] * sb[gy];
    if (diff_c <= expected_diff) return false;  // Eq. 17 violated

    // Significance: the parts must be genuinely dependent in the
    // dominant group, not just sampled high.
    if (!PartsDependentInGroup(ctx, pattern.itemset, a, b,
                               static_cast<int>(gx), alpha)) {
      return false;
    }
  }
  return true;
}

ResidualTest::ResidualTest(MiningContext& ctx,
                           const std::vector<ContrastPattern>& patterns)
    : ctx_(ctx), patterns_(patterns) {}

bool ResidualTest::IndependentlyProductive(size_t i) {
  const Itemset& general = patterns_[i].itemset;
  for (size_t j = 0; j < patterns_.size(); ++j) {
    if (i == j) continue;
    // j must be a strict specialization of i present in the list.
    const Itemset& special = patterns_[j].itemset;
    if (special.size() <= general.size()) continue;
    if (!special.Specializes(general)) continue;
    // Residual cover of i outside j must remain a significant contrast,
    // else i was "found only because of" the extra items of j.
    std::vector<double> residual = ctx_.BaseCounts(general);
    const std::vector<double>& inner = ctx_.BaseCounts(special);
    for (size_t g = 0; g < residual.size(); ++g) residual[g] -= inner[g];
    ++ctx_.counters->chi2_tests;
    stats::ChiSquaredResult res =
        stats::ChiSquaredPresenceTest(residual, ctx_.group_sizes);
    if (!res.valid || res.p_value >= ctx_.cfg->alpha) return false;
  }
  return true;
}

std::vector<ContrastPattern> FilterIndependentlyProductive(
    MiningContext& ctx, std::vector<ContrastPattern> patterns) {
  std::vector<bool> keep(patterns.size());
  ResidualTest residuals(ctx, patterns);
  for (size_t i = 0; i < patterns.size(); ++i) {
    keep[i] = residuals.IndependentlyProductive(i);
  }

  std::vector<ContrastPattern> out;
  out.reserve(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (keep[i]) {
      out.push_back(std::move(patterns[i]));
    } else {
      ++ctx.counters->not_independently_productive;
    }
  }
  return out;
}

bool IsRedundantAgainstSubsets(MiningContext& ctx,
                               const ContrastPattern& pattern) {
  const size_t n = pattern.itemset.size();
  if (n < 2) return false;
  for (size_t i = 0; i < n; ++i) {
    Itemset subset =
        pattern.itemset.WithoutAttribute(pattern.itemset.item(i).attr);
    const std::vector<double>& supports = ctx.BaseSupports(subset);
    double subset_diff = SupportDifference(supports);
    if (StatisticallySameDifference(pattern.diff, subset_diff, supports,
                                    ctx.group_sizes, ctx.cfg->alpha)) {
      return true;
    }
  }
  return false;
}

}  // namespace sdadcs::core
