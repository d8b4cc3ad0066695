#ifndef SDADCS_CORE_SEARCH_H_
#define SDADCS_CORE_SEARCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/sdad.h"

namespace sdadcs::core {

/// Apriori-style candidate generation over attribute sets: size-`level`
/// combinations of `attrs` all of whose size-(level-1) subsets appear in
/// `alive_prev` (which must be sorted). For level 1 every singleton is a
/// candidate.
std::vector<std::vector<int>> GenerateLevelCandidates(
    int level, const std::vector<int>& attrs,
    const std::vector<std::vector<int>>& alive_prev);

/// Level-wise search over attribute combinations (Figure 1). The paper
/// adopts Webb & Zhang's ordering because it maximizes pruning with less
/// storage than plain BFS; this implementation keeps the same level-wise
/// pruning power by (a) generating a size-L attribute combination only
/// when all its size-(L-1) sub-combinations were "alive" (produced at
/// least one region not killed by a monotone rule), and (b) consulting
/// the prune table before any candidate itemset or space is expanded,
/// so information discovered in one level suppresses work in the deeper
/// ones. Purely categorical combinations are enumerated STUCCO-style;
/// any combination containing a continuous attribute is handed to
/// SDAD-CS.
///
/// Combinations commit in frontier order, and each reads the prune
/// table as it stood when its level began (ComboLog). A level of two or
/// more combinations mines them on the team the context's lease grants
/// (TeamLease), each member against a copy of the top-k, and any whose
/// threshold tests the committed top-k would answer otherwise is mined
/// again on the mining thread. A level of one combination, and every
/// level of a mine without the team, mines one combination at a time on
/// the mining thread. The result, the counters and the progress reports
/// (sent at each commit, from the mining thread) equal a one-thread
/// mine's (DESIGN.md §12).
///
/// Scans are reused within one run, never across runs: each single
/// categorical item's cover of the base selection is computed once
/// (BaseCover), every prefix's group counts travel down the
/// enumeration with its rows, each root row set's groups and each of
/// its axes' cuts are kept as bits while a later combination can read
/// them and they fit the memo's budget (RootAxes), and the counts the
/// search computes seed the context's base-support memo
/// (MiningContext::BaseCounts).
class LatticeSearch {
 public:
  /// `ctx` must outlive the search and have all pointers set.
  explicit LatticeSearch(MiningContext& ctx);
  ~LatticeSearch();

  /// Mines every combination of `attrs` (attribute indices, group
  /// attribute excluded by the caller) up to cfg.max_depth, feeding the
  /// context's top-k list.
  void Run(const std::vector<int>& attrs);

  /// Exposed for testing: mines one attribute combination on this thread
  /// and files its prune entries; returns true if the combination stays
  /// alive for extension.
  bool MineCombo(const std::vector<int>& combo);

  /// ShareMemos' two steps, exposed for testing: TakeMemos moves the
  /// entries of `other`'s run memos that this search lacks into it (the
  /// root-axis memo's within its budget), and CopyMemos replaces this
  /// search's run memos with copies of `other`'s. Neither touches the
  /// contexts' memos.
  void TakeMemos(LatticeSearch* other);
  void CopyMemos(const LatticeSearch& other);

  /// The root-axis memo's size, exposed for testing: the bytes of the
  /// bitsets it holds now, the most it has held, and its budget.
  struct RootMemoStats {
    size_t bytes = 0;
    size_t peak = 0;
    size_t budget = 0;
  };
  RootMemoStats root_memo() const;

 private:
  struct Member;
  struct Level;

  /// Rows of the base selection matching one item, with their
  /// per-group counts.
  struct ItemCover {
    data::Selection rows;
    GroupCounts counts;
  };

  /// Mines `combo` against the context, leaving its deferred effects in
  /// the context's ComboLog. Returns aliveness.
  bool Mine(const std::vector<int>& combo);

  /// Mines one level's combinations, in batches on the team while the
  /// mine holds it and one at a time on this thread otherwise, and
  /// commits them in frontier order. MineInline mines and commits one
  /// combination on this thread.
  void MineLevel(Level* level);
  void MineInline(const std::vector<int>& combo, Level* level);

  /// Gives this search every memo entry its team members computed, and
  /// every member every entry this search holds, so a level reuses what
  /// any thread computed in the levels before it; root parts that no
  /// combination of the level reads are dropped first. Memo entries are
  /// exact, so results do not depend on who computed one.
  void ShareMemos();

  /// Files a combination's prune entries with its level's, records its
  /// aliveness and sends its progress report.
  void Commit(const std::vector<int>& combo, bool alive,
              std::vector<Itemset>* prune_entries, Level* level);

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

  /// The bits of the root space `space`, whose rows `root` names: the
  /// categorical prefix, plus an unbounded interval on each continuous
  /// attribute whose missing values the root filter dropped. Its group
  /// bits and the cut and side bits of each of its axes (CutRootAxis)
  /// come from the memo when it holds them and are computed otherwise;
  /// each axis's bound is the attribute's root bound, fixed for the
  /// run, so the name decides them. A computed part is kept (Keeps)
  /// when another combination may read it and it fits the memo's
  /// budget. Most root axes repeat: every combination over the same
  /// prefix splits the same rows on each of its attributes.
  RootBits RootAxes(const Itemset& root, const Space& space);

  /// Whether the memo keeps a computed part of a root of shape `shape`
  /// (axis -1: its group bits) that takes `bytes`: some combination
  /// other than the one computing it may read it (RootReads), and the
  /// memo's bitsets stay within root_memo_budget_.
  bool Keeps(const std::vector<int>& shape, int axis, size_t bytes) const;

  /// Drops every root part that no combination of the current level
  /// reads; no later level reads one either.
  void PruneRootMemo();

  /// Invokes the run's progress callback, if any, with the top-k's
  /// best-so-far fields; `improved` is set on anytime runs whose top-k
  /// changed since the last improved report.
  void ReportProgress(int level, uint64_t done, uint64_t total);

  MiningContext& ctx_;
  /// BaseCover's memo, keyed by (attribute, value code).
  std::map<std::pair<int, int32_t>, ItemCover> base_covers_;
  /// RootAxes' memo, per root row set, and the bytes of its bitsets.
  std::unordered_map<Itemset, RootBits> root_bits_;
  size_t root_memo_bytes_ = 0;
  size_t root_memo_peak_ = 0;
  /// The most bytes of bitsets the memo holds: half the bytes of the
  /// continuous columns over the analysis rows, and at most half the
  /// resident cap of a paged dataset. A team member's search has a
  /// budget of its own; members share what they copied.
  size_t root_memo_budget_ = 0;
  /// Which root parts the current level's combinations read; null
  /// outside Run (MineCombo).
  struct RootReads;
  std::shared_ptr<const RootReads> root_reads_;
  /// TopK::version() at the last improved report; a report is flagged
  /// improved only when the top-k advanced past it.
  uint64_t last_improved_version_ = 0;
  /// Team members, made as the first batches that need them mine.
  std::vector<std::unique_ptr<Member>> members_;
};

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_SEARCH_H_
