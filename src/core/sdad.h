#ifndef SDADCS_CORE_SDAD_H_
#define SDADCS_CORE_SDAD_H_

#include <limits>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/contrast.h"
#include "core/pruning.h"
#include "core/run_state.h"
#include "core/space.h"
#include "core/split_kernel.h"
#include "core/topk.h"
#include "data/dataset.h"
#include "data/group_info.h"

namespace sdadcs::core {

class TeamLease;

/// What mining one attribute combination did that takes effect only
/// when it commits (LatticeSearch, DESIGN.md §12).
struct ComboLog {
  /// The thresholds [at_least, below) under which the optimistic-
  /// estimate tests made at one point come out as they did.
  struct ThresholdRange {
    double at_least = -std::numeric_limits<double>::infinity();
    double below = std::numeric_limits<double>::infinity();
  };

  /// Entries for the prune table, which takes them when the level ends:
  /// within a level every combination reads it as the level began.
  std::vector<Itemset> prune_entries;
  /// Kept only when the top-k is a copy (MiningContext::topk_is_copy):
  /// the patterns offered to it in order, and per count of patterns
  /// offered before them, the range of the tests' threshold.
  std::vector<ContrastPattern> offered;
  std::vector<ThresholdRange> thresholds;
};

/// Shared state of one mining run, threaded through the search tree and
/// every SDAD-CS recursion. Not thread-safe: each thread that mines
/// gets its own context.
struct MiningContext {
  const data::Dataset* db = nullptr;
  const data::GroupInfo* gi = nullptr;
  const MinerConfig* cfg = nullptr;
  /// Read-only while a level mines: new entries go to `combo` first.
  PruneTable* prune_table = nullptr;
  TopK* topk = nullptr;
  /// Whether `topk` is a team member's copy of the run's top-k, whose
  /// offers and threshold tests `combo` must record for the commit.
  bool topk_is_copy = false;
  MiningCounters* counters = nullptr;
  /// The deferred effects of the combination being mined.
  ComboLog combo;
  /// Run the scan and median kernels on their vectorized path (scalar
  /// anyway on a host without AVX2); false runs the scalar oracle. Both
  /// return the same bytes. MiningSession::MakeContext sets it once per
  /// run from the host default (data::SimdByDefault); tests set it to
  /// compare the two paths in one process.
  bool simd = false;
  /// Global group sizes |g_k|.
  std::vector<double> group_sizes;
  /// Per continuous attribute: display/normalization bounds over the
  /// analysis rows.
  std::unordered_map<int, RootBounds> root_bounds;
  /// Reusable buffers for the split-and-count kernels; owned by this
  /// context (i.e. by one mining thread) and recycled across the whole
  /// SDAD-CS recursion.
  SplitScratch split_scratch;
  /// The mine's lease on the process's team (core/team_lease.h), set
  /// only by a Miner with more than one shard on the context of its
  /// mining thread; LatticeSearch mines a level's combinations on the
  /// team it grants. Null = every combination mines on this thread.
  const TeamLease* team = nullptr;
  /// This thread's view of the run's deadline / cancellation / budget
  /// handle. Default-constructed = unlimited. Checkpoints sit at node
  /// granularity (one per evaluated partition or itemset), never inside
  /// the split-kernel inner loops.
  RunState run;

  /// Files `itemset` for the prune table (ComboLog::prune_entries).
  void FilePrune(const Itemset& itemset) {
    combo.prune_entries.push_back(itemset);
  }

  /// The optimistic-estimate test of Algorithm 1: true when `oe` cannot
  /// beat the top-k threshold. Recorded in ComboLog::thresholds.
  bool BelowThreshold(double oe);

  /// Offers `pattern` to the top-k. Recorded in ComboLog::offered.
  void Offer(const ContrastPattern& pattern);

  /// Memoized chi-square critical values: the inverse survival function
  /// costs ~13 µs per evaluation (bisection) and the same handful of
  /// (alpha, dof) pairs recur throughout a run. Keyed on the exact
  /// alpha, so distinct alphas never share an entry.
  double ChiCritical(double alpha, int dof);

  /// Per-group match counts of `itemset` over the base selection, from
  /// the run's memo keyed by the itemset; a miss counts once with
  /// CountMatchesKernel. The productivity and redundancy tests ask for
  /// the same sub-itemsets pattern after pattern, and the productivity
  /// test's 2x2 tables follow from these counts. The reference stays
  /// valid for the context's lifetime.
  const std::vector<double>& BaseCounts(const Itemset& itemset);

  /// The same memo entry's supports, counts[g] / |g|.
  const std::vector<double>& BaseSupports(const Itemset& itemset);

  /// Seeds the memo with counts the search already computed over the
  /// base selection (counts are exact, so a seed equals a recount). An
  /// itemset already in the memo keeps its entry.
  void RememberBaseCounts(const Itemset& itemset,
                          const std::vector<double>& counts);

  /// Moves the memo entries (base counts, chi-square critical values)
  /// of `other` that this context lacks into this one. Entries are
  /// exact, so it does not matter which context computed one.
  void TakeMemos(MiningContext* other);

  /// Replaces this context's memos with copies of `other`'s.
  void CopyMemos(const MiningContext& other);

 private:
  /// One base-support memo entry.
  struct BaseStats {
    std::vector<double> counts;
    std::vector<double> supports;
  };
  const BaseStats& BaseEntry(const Itemset& itemset);

  std::map<std::pair<double, int>, double> chi_critical_cache_;
  std::unordered_map<Itemset, BaseStats> base_stats_;
};

/// Per-call arguments of Algorithm 1 beyond the shared context.
struct SdadCall {
  /// Fixed categorical items c of the itemsets being formed.
  Itemset cat_items;
  /// Continuous attributes ca to discretize (all constrained in every
  /// returned pattern).
  std::vector<int> cont_attrs;
  /// Current space/region (the whole range of ca at the root call).
  Space space;
  /// Level in the recursive tree (1 at the root of this search node).
  int level = 1;
  /// |DB| of the outermost call at this search node (Eq. 6).
  double outer_db_size = 0.0;
  /// Parent's interest measure pm (0 at the root call).
  double parent_measure = 0.0;
  /// Parent region's per-group supports and support difference, used by
  /// the redundancy test (Eqs. 14-16) on the child cells.
  std::vector<double> parent_supports;
  double parent_diff = 0.0;
};

/// Algorithm 1, SDAD-CS: recursively partitions the continuous space at
/// per-axis medians, scores each cell, decides via the optimistic
/// estimates whether to go deeper, and at level 1 merges contiguous
/// statistically-similar cells (smallest hyper-volume first). Returns
/// the contrast patterns found in this region (possibly empty — the
/// caller then considers the region itself). `root`, when given, holds
/// call.space's rows and the cut of each of its axes as bits (the
/// lattice search memoizes them per root row set): the space then
/// splits by SplitRoot, and a cell's rows are built only when the cell
/// recurses. The recursion's child calls cut and split their spaces by
/// PartitionCuts and SplitAndCount.
std::vector<ContrastPattern> RunSdadCs(MiningContext& ctx,
                                       const SdadCall& call,
                                       const RootBits* root = nullptr);

/// Builds the root SdadCall for a search-tree node whose categorical
/// prefix `cat_items` covers `rows` with per-group `counts`: its rows
/// are `rows` minus those missing a value of `cont_attrs`, and its
/// bounds are the attributes' root bounds. Only an attribute some
/// analysis row misses (RootBounds::any_missing) can drop a row; when
/// none does, `rows` and `counts` are reused unfiltered. The attributes
/// that filtered go to `missing_attrs` when it is given.
SdadCall MakeRootCall(MiningContext& ctx, const Itemset& cat_items,
                      const std::vector<int>& cont_attrs,
                      const data::Selection& rows, const GroupCounts& counts,
                      std::vector<int>* missing_attrs = nullptr);

/// The bottom-up merge phase (Lines 26-29), exposed for testing: sorts
/// `patterns` by hyper-volume ascending and repeatedly merges pairs that
/// are contiguous on exactly one axis, whose group distributions are not
/// significantly different (chi-square at α), and whose union is still
/// large and significant. Counts/stats of merged patterns are recomputed.
void MergeContiguousSpaces(MiningContext& ctx,
                           std::vector<ContrastPattern>* patterns);

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_SDAD_H_
