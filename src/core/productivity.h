#ifndef SDADCS_CORE_PRODUCTIVITY_H_
#define SDADCS_CORE_PRODUCTIVITY_H_

#include <cstddef>
#include <vector>

#include "core/contrast.h"
#include "core/sdad.h"
#include "core/support.h"

namespace sdadcs::core {

/// Productivity test of Section 4.3 (Eq. 17): for *every* binary
/// partition (a, c\a) of the pattern's itemset, the observed support
/// difference must exceed the difference expected under independence of
/// the parts, and the excess must be statistically significant. The
/// significance of the dependence is confirmed with a chi-square test of
/// the 2×2 co-occurrence table of a and c\a within the dominant group
/// (Fisher's exact test when expected counts are small) — the "leverage"
/// relationship the paper points out.
///
/// Patterns with fewer than two items are trivially productive.
bool IsProductive(MiningContext& ctx, const ContrastPattern& pattern);

/// Independent productivity (Section 4.3) within one pattern list: a
/// pattern A fails when some strict specialization S of A in the list
/// explains it, i.e. the rows covered by A but not by S no longer form a
/// significant contrast (chi-square presence test at ctx.cfg->alpha).
/// S's cover lies inside A's (Item::ContainedIn), so the residual's group
/// counts are count(A) - count(S), exact on small-integer doubles: no
/// cover is built, and a pattern's counts over the base selection come
/// from the context's memo (MiningContext::BaseCounts), scanned only
/// when a pair first needs them. Each evaluated pair adds one to
/// ctx.counters->chi2_tests. `patterns` must outlive the test.
class ResidualTest {
 public:
  ResidualTest(MiningContext& ctx,
               const std::vector<ContrastPattern>& patterns);

  /// True unless a strict specialization of patterns[i] in the list
  /// leaves an insignificant residual.
  bool IndependentlyProductive(size_t i);

 private:
  MiningContext& ctx_;
  const std::vector<ContrastPattern>& patterns_;
};

/// Independent-productivity post-filter: drops every pattern the
/// ResidualTest fails. Returns the surviving patterns, order preserved;
/// the number removed is added to ctx.counters->not_independently_productive.
std::vector<ContrastPattern> FilterIndependentlyProductive(
    MiningContext& ctx, std::vector<ContrastPattern> patterns);

/// True if `pattern`'s support difference is statistically the same as
/// that of one of its immediate generalizations (one item removed),
/// computed on demand — the redundancy notion used to classify the
/// unfiltered top-k in Table 6.
bool IsRedundantAgainstSubsets(MiningContext& ctx,
                               const ContrastPattern& pattern);

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_PRODUCTIVITY_H_
