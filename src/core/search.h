#ifndef SDADCS_CORE_SEARCH_H_
#define SDADCS_CORE_SEARCH_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/sdad.h"

namespace sdadcs::core {

/// Apriori-style candidate generation over attribute sets: size-`level`
/// combinations of `attrs` all of whose size-(level-1) subsets appear in
/// `alive_prev` (which must be sorted). For level 1 every singleton is a
/// candidate. Shared by the serial LatticeSearch and the level-parallel
/// miner (Section 6).
std::vector<std::vector<int>> GenerateLevelCandidates(
    int level, const std::vector<int>& attrs,
    const std::vector<std::vector<int>>& alive_prev);

/// Level-synchronous frontier API: the candidate list one level of the
/// lattice actually evaluates, in evaluation order. Wraps
/// GenerateLevelCandidates with the two deterministic frontier policies
/// every engine shares — the per-level candidate cap
/// (cfg.max_candidates_per_level, overflow charged to
/// counters->truncated_candidates) and, with `cheap_first` set, the
/// stable cheap-first ordering (fewest continuous attributes first, so
/// a top-k threshold exists before the expensive recursive splits).
/// core::Miner consumes the frontier in this order on one coordinator
/// at every shard count; the level-parallel engine deals the same frontier
/// (cheap_first = false, its workers interleave anyway) across threads.
/// Pure frontier generation: no mining, no pruning — pruning decisions
/// happen downstream, off merged statistics only.
std::vector<std::vector<int>> BuildLevelFrontier(
    const data::Dataset& db, const MinerConfig& cfg, int level,
    const std::vector<int>& attrs,
    const std::vector<std::vector<int>>& alive_prev, bool cheap_first,
    MiningCounters* counters);

/// Level-wise search over attribute combinations (Figure 1). The paper
/// adopts Webb & Zhang's ordering because it maximizes pruning with less
/// storage than plain BFS; this implementation keeps the same level-wise
/// pruning power by (a) generating a size-L attribute combination only
/// when all its size-(L-1) sub-combinations were "alive" (produced at
/// least one region not killed by a monotone rule), and (b) consulting
/// the shared prune table before any candidate itemset or space is
/// expanded, so information discovered early in a level suppresses work
/// later in the same and deeper levels.
///
/// Purely categorical combinations are enumerated STUCCO-style; any
/// combination containing a continuous attribute is handed to SDAD-CS.
///
/// Scans are reused within one run, never across runs: each single
/// categorical item's cover of the base selection is computed once
/// (BaseCover), every prefix's group counts travel down the
/// enumeration with its rows, each root-space axis is cut once per row
/// set (RootCut), and the counts the search computes seed the context's
/// base-support memo (MiningContext::BaseCounts).
class LatticeSearch {
 public:
  /// `ctx` must outlive the search and have all pointers set.
  explicit LatticeSearch(MiningContext& ctx) : ctx_(ctx) {}

  /// Mines every combination of `attrs` (attribute indices, group
  /// attribute excluded by the caller) up to cfg.max_depth, feeding the
  /// context's top-k list.
  void Run(const std::vector<int>& attrs);

  /// Exposed for testing: mines one attribute combination; returns true
  /// if the combination stays alive for extension.
  bool MineCombo(const std::vector<int>& combo);

 private:
  /// Rows of the base selection matching one item, with their
  /// per-group counts.
  struct ItemCover {
    data::Selection rows;
    GroupCounts counts;
  };

  /// `rows` is the cover of `prefix` within the base selection and
  /// `counts` its per-group counts.
  void EnumerateCategorical(const std::vector<int>& cat_attrs,
                            const std::vector<int>& cont_attrs, size_t next,
                            const Itemset& prefix,
                            const data::Selection& rows,
                            const GroupCounts& counts, bool* alive);

  /// Scores a complete categorical itemset (no continuous part) whose
  /// cover is `rows` with per-group `counts`.
  void EvaluateCategoricalLeaf(const Itemset& itemset,
                               const data::Selection& rows,
                               const GroupCounts& counts, bool* alive);

  /// Runs SDAD-CS under a fixed categorical itemset whose cover is
  /// `rows` with per-group `counts`.
  void EvaluateSdadLeaf(const Itemset& cat_items,
                        const std::vector<int>& cont_attrs,
                        const data::Selection& rows,
                        const GroupCounts& counts, bool* alive);

  /// The cover of one categorical item within the base selection,
  /// scanned on first request and kept for the run. An attribute's
  /// values partition the rows, so the memo holds at most one row id
  /// per base row per categorical attribute.
  const ItemCover& BaseCover(const Item& item);

  /// partition(ca) of one root-space axis, computed on first request and
  /// kept for the run. `root` names the root rows: the categorical
  /// prefix, plus an unbounded interval on each continuous attribute
  /// whose missing values the root filter dropped. `bound` is the
  /// attribute's root bound, fixed for the run, so the name decides the
  /// cut. Most root cuts repeat: every combination over the same prefix
  /// splits the same rows on each of its attributes.
  double RootCut(const Itemset& root, const data::Selection& rows,
                 const AxisBound& bound);

  /// Invokes the run's progress callback, if any.
  void ReportProgress(int level, uint64_t done, uint64_t total) const;

  /// Reports mid-combo when anytime streaming is on and the top-k has
  /// advanced since the last improved report, so a freshly inserted pattern
  /// reaches the stream without waiting for the combination to finish.
  void MaybeReportInsert() const;

  MiningContext& ctx_;
  /// Level-loop position, captured so mid-combo reports carry the same
  /// progress coordinates the end-of-combo report would.
  int progress_level_ = 0;
  uint64_t progress_done_ = 0;
  uint64_t progress_total_ = 0;
  /// BaseCover's memo, keyed by (attribute, value code).
  std::map<std::pair<int, int32_t>, ItemCover> base_covers_;
  /// RootCut's memo: per root row set, the cut of each attribute.
  std::unordered_map<Itemset, std::map<int, double>> root_cuts_;
  /// TopK::version() at the last improved report; a report is flagged
  /// improved only when the top-k advanced past it.
  mutable uint64_t last_improved_version_ = 0;
};

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_SEARCH_H_
