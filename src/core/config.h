#ifndef SDADCS_CORE_CONFIG_H_
#define SDADCS_CORE_CONFIG_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/interest.h"
#include "util/status.h"

namespace sdadcs::core {

/// Where SDAD-CS cuts a continuous axis when partitioning a space.
/// The paper: "partition(ca) divides each continuous attribute at the
/// median or mean (we use median)". Median is the default; mean is
/// provided for the ablation study.
enum class SplitKind {
  kMedian,
  kMean,
};

/// How the significance level is adjusted for multiple testing.
enum class BonferroniMode {
  /// Use α unchanged for every test.
  kNone,
  /// α_l = α / 2^l for a pattern with l items (Bay & Pazzani's
  /// level-wise cap; the paper adjusts α "during execution").
  kPerLevel,
};

/// All user-facing knobs of the miner. Defaults mirror the paper's
/// experimental setup (α = 0.05, δ = 0.1, tree stunted at 5 levels,
/// top-100 patterns). Which scan kernels run (vectorized or the scalar
/// oracle) is not a knob: the host picks once per run
/// (MiningContext::simd), and every choice returns the same bytes.
struct MinerConfig {
  /// Significance level for every statistical test (Eq. 3); adjusted per
  /// `bonferroni`.
  double alpha = 0.05;
  /// Minimum support difference for a "large" contrast (Eq. 2), and the
  /// floor of the top-k threshold.
  double delta = 0.1;
  /// Maximum number of items in a pattern (search-tree depth).
  int max_depth = 5;
  /// Maximum recursion depth of the SDAD-CS splitter within one call
  /// (each level halves every continuous attribute again).
  int sdad_max_level = 4;
  /// Capacity of the top-k result list.
  int top_k = 100;
  /// Interest measure to optimize.
  MeasureKind measure = MeasureKind::kSupportDiff;
  BonferroniMode bonferroni = BonferroniMode::kPerLevel;
  /// Median (paper default) or mean axis splits.
  SplitKind split = SplitKind::kMedian;

  /// Optimistic-estimate pruning of recursion (Eqs. 5-11 against the
  /// top-k threshold). On for SDAD-CS; the "NP" configuration of the
  /// paper's Table 5 runs without it (its partition counts dwarf
  /// SDAD-CS's), so RunSdadNp turns it off together with
  /// `meaningful_pruning`.
  bool optimistic_pruning = true;

  /// Master switch for the meaningfulness machinery. Setting it false
  /// yields "SDAD-CS NP" from the paper: redundancy pruning (Eqs. 14-16),
  /// pure-space pruning, productivity filtering, and the independently-
  /// productive post-filter are all disabled. Support-based pruning
  /// (minimum deviation size, expected-count) stays on in both modes.
  bool meaningful_pruning = true;

  /// Fine-grained switches for the ablation study; each is only active
  /// while `meaningful_pruning` is true.
  bool redundancy_pruning = true;   ///< CLT same-difference rule (Eqs. 14-16)
  bool pure_space_pruning = true;   ///< PR = 1 regions never extended
  bool chi_bound_pruning = true;    ///< STUCCO chi-square upper bound
  bool productivity_filter = true;  ///< Eq. 17 + dependence test

  /// Effective per-rule switches.
  bool RedundancyPruningOn() const {
    return meaningful_pruning && redundancy_pruning;
  }
  bool PureSpacePruningOn() const {
    return meaningful_pruning && pure_space_pruning;
  }
  bool ChiBoundPruningOn() const {
    return meaningful_pruning && chi_bound_pruning;
  }
  bool ProductivityFilterOn() const {
    return meaningful_pruning && productivity_filter;
  }

  /// Bottom-up merging of contiguous similar spaces (Lines 26-29 of
  /// Algorithm 1).
  bool merge_spaces = true;

  /// Significance level α_r of the merge-phase similarity test ("two
  /// spaces are combined if a chi-square test with α_r does not tell
  /// their group distributions apart"). NaN (default) means "use
  /// `alpha`". A larger α_r merges less (more spaces test as
  /// different); a smaller α_r merges more aggressively.
  double merge_alpha = std::numeric_limits<double>::quiet_NaN();

  /// Resolved merge-phase alpha.
  double MergeAlpha() const {
    return std::isnan(merge_alpha) ? alpha : merge_alpha;
  }

  /// Post-filter to independently productive patterns (Section 4.3).
  bool independently_productive_filter = true;

  /// Minimum rows a pattern must cover in total.
  int min_coverage = 2;

  /// Safety cap on attribute combinations per lattice level (0 = no
  /// cap). Very wide tables at depth 4-5 can generate millions of
  /// combinations; when the cap trips, the first N candidates (in the
  /// deterministic generation order) are mined and
  /// `MiningCounters::truncated_candidates` records the rest, so a
  /// capped run is visibly incomplete rather than silently partial.
  size_t max_candidates_per_level = 0;

  /// Optional restriction of the mined attributes (names). Empty = every
  /// attribute except the group attribute.
  std::vector<std::string> attributes;

  /// Per-test significance level for a pattern with `level` items.
  double AlphaForLevel(int level) const {
    if (bonferroni == BonferroniMode::kNone) return alpha;
    double a = alpha;
    for (int i = 0; i < level; ++i) a *= 0.5;
    return a;
  }

  /// Range-checks every field and names the offending one in the error
  /// message (e.g. "alpha must be in (0, 1), got 1.5"). Every engine
  /// entry point — Miner, WindowMiner and the beam baseline — validates
  /// through this before mining.
  util::Status Validate() const;

  /// Stable 64-bit hash of every field — each one can change the mined
  /// patterns — mixed under its own field tag so two configs collide
  /// only if they would produce identical output. Deliberately not a
  /// hash of the struct bytes: a NaN `merge_alpha` is canonicalized so
  /// "default" always hashes the same.
  /// The serving layer's result cache keys on this; see
  /// core/request_key.h.
  uint64_t Fingerprint() const;
};

/// Observability counters accumulated during one mining run. "Partitions
/// evaluated" is the column reported in Table 5.
struct MiningCounters {
  uint64_t partitions_evaluated = 0;  ///< spaces + categorical itemsets scored
  uint64_t sdad_calls = 0;            ///< recursive SDAD-CS invocations
  uint64_t pruned_lookup = 0;         ///< skipped via the prune table
  uint64_t pruned_min_support = 0;    ///< minimum deviation size rule
  uint64_t pruned_low_expected = 0;   ///< expected count < 5 rule
  uint64_t pruned_redundant = 0;      ///< CLT same-difference rule
  uint64_t pruned_pure = 0;           ///< PR = 1 spaces not extended
  uint64_t pruned_oe_measure = 0;     ///< optimistic estimate below threshold
  uint64_t pruned_oe_chi2 = 0;        ///< chi-square upper bound rule
  uint64_t unproductive = 0;          ///< failed the productivity check
  uint64_t not_independently_productive = 0;
  uint64_t merges = 0;                ///< space merges performed
  uint64_t chi2_tests = 0;
  uint64_t truncated_candidates = 0;  ///< combos dropped by the level cap
  /// Attribute combinations never mined because the run stopped early
  /// (deadline, cancellation or budget). Zero on a kComplete run.
  uint64_t abandoned_candidates = 0;

  void Add(const MiningCounters& other);
};

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_CONFIG_H_
