#include "core/sdad.h"

#include <algorithm>
#include <cmath>

#include "core/match_kernel.h"
#include "core/optimistic.h"
#include "core/support.h"
#include "stats/chi_squared.h"
#include "util/logging.h"

namespace sdadcs::core {

namespace {

// Minimum rows a space must hold for further recursion to make sense:
// below this every child fails the expected-count rule anyway.
constexpr size_t kMinRowsToRecurse = 8;

// Builds the full itemset of a cell: fixed categorical items plus one
// interval item per axis.
Itemset CellItemset(const Itemset& cat_items,
                    const std::vector<AxisBound>& bounds) {
  Itemset out = cat_items;
  for (const Item& it : IntervalItems(bounds)) {
    out = out.WithItem(it);
  }
  return out;
}

// Collects the root bounds of each axis of `bounds`, in order.
std::vector<RootBounds> RootsFor(const MiningContext& ctx,
                                 const std::vector<AxisBound>& bounds) {
  std::vector<RootBounds> roots;
  roots.reserve(bounds.size());
  for (const AxisBound& b : bounds) {
    auto it = ctx.root_bounds.find(b.attr);
    SDADCS_CHECK(it != ctx.root_bounds.end());
    roots.push_back(it->second);
  }
  return roots;
}

ContrastPattern MakePattern(MiningContext& ctx, Itemset itemset,
                            std::vector<double> counts,
                            const std::vector<AxisBound>& bounds) {
  ContrastPattern p;
  p.itemset = std::move(itemset);
  p.counts = std::move(counts);
  p.ComputeStats(*ctx.gi, ctx.cfg->measure);
  p.hypervolume = HyperVolume(bounds, RootsFor(ctx, bounds));
  return p;
}

// Extracts the axis bounds encoded in a pattern's interval items, in
// attribute order (categorical items skipped).
std::vector<AxisBound> BoundsOf(const ContrastPattern& p) {
  std::vector<AxisBound> bounds;
  for (const Item& it : p.itemset.items()) {
    if (it.kind == Item::Kind::kInterval) {
      bounds.push_back({it.attr, it.lo, it.hi});
    }
  }
  return bounds;
}

// True if a and b are identical on every axis except exactly one, where
// they are adjacent ((x,m] next to (m,y]). Returns the merged bounds.
bool ContiguousBounds(const std::vector<AxisBound>& a,
                      const std::vector<AxisBound>& b,
                      std::vector<AxisBound>* merged) {
  if (a.size() != b.size()) return false;
  int touch_axis = -1;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].attr != b[i].attr) return false;
    if (a[i].lo == b[i].lo && a[i].hi == b[i].hi) continue;
    if (touch_axis >= 0) return false;  // differs on two axes
    if (a[i].hi == b[i].lo || b[i].hi == a[i].lo) {
      touch_axis = static_cast<int>(i);
    } else {
      return false;
    }
  }
  if (touch_axis < 0) return false;  // identical regions
  *merged = a;
  (*merged)[touch_axis].lo = std::min(a[touch_axis].lo, b[touch_axis].lo);
  (*merged)[touch_axis].hi = std::max(a[touch_axis].hi, b[touch_axis].hi);
  return true;
}

// Chi-square similarity of two regions' group distributions: true when
// the hypothesis "same distribution" is NOT rejected at alpha (the merge
// criterion of Lines 28-29; degenerate tables count as similar, which
// lets adjacent pure regions of the same group coalesce).
bool SimilarDistributions(MiningContext& ctx,
                          const std::vector<double>& counts_a,
                          const std::vector<double>& counts_b,
                          double alpha) {
  stats::ContingencyTable t(2, static_cast<int>(counts_a.size()));
  for (size_t g = 0; g < counts_a.size(); ++g) {
    t.set_cell(0, static_cast<int>(g), counts_a[g]);
    t.set_cell(1, static_cast<int>(g), counts_b[g]);
  }
  ++ctx.counters->chi2_tests;
  stats::ChiSquaredResult res = stats::ChiSquaredTest(t);
  if (!res.valid) return true;
  return res.p_value > alpha;
}

// Shares the categorical part and axis set? (Merging never mixes
// patterns from different search-tree nodes.)
bool SameProfile(const ContrastPattern& a, const ContrastPattern& b) {
  if (a.itemset.size() != b.itemset.size()) return false;
  for (size_t i = 0; i < a.itemset.size(); ++i) {
    const Item& x = a.itemset.item(i);
    const Item& y = b.itemset.item(i);
    if (x.attr != y.attr || x.kind != y.kind) return false;
    if (x.kind == Item::Kind::kCategorical && x.code != y.code) return false;
  }
  return true;
}

}  // namespace

bool MiningContext::BelowThreshold(double oe) {
  const bool below = oe <= topk->threshold();
  if (!topk_is_copy) return below;
  if (combo.thresholds.size() <= combo.offered.size()) {
    combo.thresholds.resize(combo.offered.size() + 1);
  }
  ComboLog::ThresholdRange& range = combo.thresholds[combo.offered.size()];
  if (below) {
    range.at_least = std::max(range.at_least, oe);
  } else {
    range.below = std::min(range.below, oe);
  }
  return below;
}

void MiningContext::Offer(const ContrastPattern& pattern) {
  topk->Insert(pattern);
  if (topk_is_copy) combo.offered.push_back(pattern);
}

double MiningContext::ChiCritical(double alpha, int dof) {
  const std::pair<double, int> key(alpha, dof);
  auto it = chi_critical_cache_.find(key);
  if (it != chi_critical_cache_.end()) return it->second;
  double value = stats::ChiSquaredCritical(alpha, dof);
  chi_critical_cache_.emplace(key, value);
  return value;
}

const MiningContext::BaseStats& MiningContext::BaseEntry(
    const Itemset& itemset) {
  auto [it, inserted] = base_stats_.try_emplace(itemset);
  if (inserted) {
    GroupCounts gc = CountMatchesKernel(*db, *gi, itemset, gi->base_selection(),
                                        &split_scratch, simd);
    it->second.supports = gc.Supports(*gi);
    it->second.counts = std::move(gc.counts);
  }
  return it->second;
}

const std::vector<double>& MiningContext::BaseCounts(const Itemset& itemset) {
  return BaseEntry(itemset).counts;
}

const std::vector<double>& MiningContext::BaseSupports(
    const Itemset& itemset) {
  return BaseEntry(itemset).supports;
}

void MiningContext::RememberBaseCounts(const Itemset& itemset,
                                       const std::vector<double>& counts) {
  auto [it, inserted] = base_stats_.try_emplace(itemset);
  if (!inserted) return;
  it->second.counts = counts;
  it->second.supports = GroupCounts{counts}.Supports(*gi);
}

void MiningContext::TakeMemos(MiningContext* other) {
  base_stats_.merge(other->base_stats_);
  chi_critical_cache_.merge(other->chi_critical_cache_);
}

void MiningContext::CopyMemos(const MiningContext& other) {
  base_stats_ = other.base_stats_;
  chi_critical_cache_ = other.chi_critical_cache_;
}

SdadCall MakeRootCall(MiningContext& ctx, const Itemset& cat_items,
                      const std::vector<int>& cont_attrs,
                      const data::Selection& rows, const GroupCounts& counts,
                      std::vector<int>* missing_attrs) {
  SdadCall call;
  call.cat_items = cat_items;
  call.cont_attrs = cont_attrs;
  call.level = 1;
  call.parent_measure = 0.0;  // "initially set to 0"

  call.space.bounds.reserve(cont_attrs.size());
  std::vector<int> missing;
  for (int attr : cont_attrs) {
    auto it = ctx.root_bounds.find(attr);
    SDADCS_CHECK(it != ctx.root_bounds.end());
    call.space.bounds.push_back({attr, it->second.lo, it->second.hi});
    if (it->second.any_missing) missing.push_back(attr);
  }
  GroupCounts root_counts;
  if (!missing.empty()) {
    call.space.rows = FilterAllPresentKernel(*ctx.db, *ctx.gi, cont_attrs,
                                             rows, &root_counts,
                                             &ctx.split_scratch, ctx.simd);
  } else {
    call.space.rows = rows;
    root_counts = counts;
  }
  call.outer_db_size = static_cast<double>(call.space.rows.size());

  call.parent_supports = root_counts.Supports(*ctx.gi);
  call.parent_diff = SupportDifference(call.parent_supports);
  if (missing_attrs != nullptr) *missing_attrs = std::move(missing);
  return call;
}

std::vector<ContrastPattern> RunSdadCs(MiningContext& ctx,
                                       const SdadCall& call,
                                       const RootBits* root) {
  const MinerConfig& cfg = *ctx.cfg;
  MiningCounters& counters = *ctx.counters;
  // Cancellation checkpoint before the split: the fused split+count
  // pass scans every row of this space, so charge its weight here and
  // bail before the scan when the run is already over.
  if (ctx.run.CheckPoint(RunState::NodeWeight(call.space.rows.size()))) {
    return {};
  }
  ++counters.sdad_calls;

  std::vector<ContrastPattern> d;       // contrasts (Line 2)
  std::vector<ContrastPattern> d_temp;  // maybe-contrasts (Line 3)

  // Split the space and count the children: a root space from its bits,
  // any other in one pass over its rows, each row's cell computed and
  // its group counted together (SplitAndCount; FindCombs + CountGroups,
  // its per-cell reference, lives on as the test oracle).
  SplitResult split =
      root != nullptr
          ? SplitRoot(call.space, *root, &ctx.split_scratch, ctx.simd)
          : SplitAndCount(*ctx.db, *ctx.gi, call.space,
                          PartitionCuts(*ctx.db, call.space, cfg.split,
                                        &ctx.split_scratch.values,
                                        &ctx.split_scratch.select, ctx.simd),
                          &ctx.split_scratch, ctx.simd);
  std::vector<Space>& cells = split.cells;
  if (cells.empty()) return {};

  const int item_count = static_cast<int>(call.cat_items.size() +
                                          call.cont_attrs.size());
  const double alpha_level = cfg.AlphaForLevel(item_count);
  const int dof = ctx.gi->num_groups() - 1;
  const double chi2_critical = ctx.ChiCritical(alpha_level, dof);

  for (size_t ci = 0; ci < cells.size(); ++ci) {
    Space& cell = cells[ci];
    const size_t cell_rows = split.sizes[ci];
    // Per-cell checkpoint: on stop, keep the patterns already collected
    // in this call (best-so-far) and drain out through the merge phase.
    if (ctx.run.CheckPoint(RunState::NodeWeight(cell_rows))) break;
    Itemset itemset = CellItemset(call.cat_items, cell.bounds);
    ++counters.partitions_evaluated;

    if (cfg.meaningful_pruning && ctx.prune_table->CanPrune(itemset)) {
      ++counters.pruned_lookup;
      continue;
    }

    GroupCounts gc = std::move(split.counts[ci]);
    std::vector<double> supports = gc.Supports(*ctx.gi);
    double diff = SupportDifference(supports);
    double purity = PurityRatio(supports);
    double measure = MeasureValue(cfg.measure, supports);

    // Minimum deviation size: no group reaches delta -> nothing large can
    // come out of this region.
    if (BelowMinimumDeviation(supports, cfg.delta)) {
      if (cfg.meaningful_pruning) ctx.FilePrune(itemset);
      ++counters.pruned_min_support;
      continue;
    }
    // Expected occurrence below 5: no reliable test here or deeper.
    if (LowExpectedCount(gc.counts, ctx.group_sizes)) {
      if (cfg.meaningful_pruning) ctx.FilePrune(itemset);
      ++counters.pruned_low_expected;
      continue;
    }
    // Redundancy vs the parent region (Eqs. 14-16): statistically the
    // same support difference means the refinement adds nothing.
    if (cfg.RedundancyPruningOn() &&
        StatisticallySameDifference(diff, call.parent_diff,
                                    call.parent_supports, ctx.group_sizes,
                                    cfg.alpha)) {
      ctx.FilePrune(itemset);
      ++counters.pruned_redundant;
      continue;
    }

    const bool pure = purity >= 1.0 && gc.total() > 0.0;
    bool can_recurse = call.level < cfg.sdad_max_level &&
                       cell_rows >= kMinRowsToRecurse;
    if (pure && cfg.PureSpacePruningOn()) {
      // A pure space cannot be improved; extensions are redundant
      // (Section 4.3). Report it, never refine or extend it.
      ctx.FilePrune(itemset);
      ++counters.pruned_pure;
      can_recurse = false;
    }

    if (can_recurse && cfg.optimistic_pruning) {
      // Eq. 11 bounds the achievable support difference; PR <= 1 makes
      // it a bound on the Surprising Measure too. Pure-homogeneity
      // measures can hit 1.0 in any non-empty child, so only the
      // trivial bound applies there (MeasureNeedsTrivialBound).
      double oe;
      if (MeasureNeedsTrivialBound(cfg.measure)) {
        oe = gc.total() > 0.0 ? 1.0 : 0.0;
      } else {
        OptimisticInput in;
        in.db_size = call.outer_db_size;
        in.level = call.level;
        in.num_continuous = static_cast<int>(call.cont_attrs.size());
        in.space_total = gc.total();
        in.counts = gc.counts;
        in.group_sizes = ctx.group_sizes;
        oe = OptimisticMeasure(in);
      }
      if (ctx.BelowThreshold(oe)) {
        ++counters.pruned_oe_measure;
        can_recurse = false;
      }
    }
    if (can_recurse && cfg.ChiBoundPruningOn() &&
        MaxChildChiSquared(gc.counts, ctx.group_sizes) < chi2_critical) {
      ++counters.pruned_oe_chi2;
      can_recurse = false;
    }

    std::vector<ContrastPattern> d_child;
    if (can_recurse) {
      SdadCall child;
      child.cat_items = call.cat_items;
      child.cont_attrs = call.cont_attrs;
      child.space.bounds = cell.bounds;
      child.space.rows = root != nullptr
                             ? RootCellRows(call.space, *root, split, ci)
                             : std::move(cell.rows);
      child.level = call.level + 1;
      child.outer_db_size = call.outer_db_size;
      child.parent_measure = measure;
      child.parent_supports = supports;
      child.parent_diff = diff;
      d_child = RunSdadCs(ctx, child);
    }

    if (!d_child.empty()) {
      for (ContrastPattern& p : d_child) d.push_back(std::move(p));
      continue;
    }

    // Lines 17-21: the cell itself, if large and significant.
    if (diff <= cfg.delta) continue;
    if (gc.total() < cfg.min_coverage) continue;
    ++counters.chi2_tests;
    stats::ChiSquaredResult test =
        stats::ChiSquaredPresenceTest(gc.counts, ctx.group_sizes);
    if (!test.valid || test.p_value >= alpha_level) continue;
    ContrastPattern pattern =
        MakePattern(ctx, std::move(itemset), gc.counts, cell.bounds);
    if (measure > call.parent_measure) {
      d.push_back(std::move(pattern));
    } else {
      d_temp.push_back(std::move(pattern));
    }
  }

  // Lines 22-25: without at least one improving space, report nothing and
  // let the caller keep the parent region instead.
  if (d.empty()) return {};
  for (ContrastPattern& p : d_temp) d.push_back(std::move(p));

  if (call.level == 1 && cfg.merge_spaces) {
    MergeContiguousSpaces(ctx, &d);
  }
  return d;
}

void MergeContiguousSpaces(MiningContext& ctx,
                           std::vector<ContrastPattern>* patterns) {
  const MinerConfig& cfg = *ctx.cfg;
  auto by_volume = [](const ContrastPattern& a, const ContrastPattern& b) {
    if (a.hypervolume != b.hypervolume) return a.hypervolume < b.hypervolume;
    return a.itemset.Key() < b.itemset.Key();
  };
  std::sort(patterns->begin(), patterns->end(), by_volume);

  bool merged_any = true;
  while (merged_any) {
    merged_any = false;
    for (size_t i = 0; i < patterns->size() && !merged_any; ++i) {
      for (size_t j = i + 1; j < patterns->size() && !merged_any; ++j) {
        ContrastPattern& a = (*patterns)[i];
        ContrastPattern& b = (*patterns)[j];
        if (!SameProfile(a, b)) continue;
        std::vector<AxisBound> merged_bounds;
        if (!ContiguousBounds(BoundsOf(a), BoundsOf(b), &merged_bounds)) {
          continue;
        }
        if (!SimilarDistributions(ctx, a.counts, b.counts,
                                  cfg.MergeAlpha())) {
          continue;
        }
        // Regions from one SDAD-CS run are disjoint, so counts add.
        std::vector<double> counts(a.counts.size());
        for (size_t g = 0; g < counts.size(); ++g) {
          counts[g] = a.counts[g] + b.counts[g];
        }
        ContrastPattern candidate = MakePattern(
            ctx, CellItemset(a.itemset.WithoutIntervals(), merged_bounds),
            counts, merged_bounds);
        // The merged region must itself still be large and significant.
        double alpha_level = cfg.AlphaForLevel(candidate.level);
        if (candidate.diff <= cfg.delta ||
            candidate.p_value >= alpha_level) {
          continue;
        }
        ++ctx.counters->merges;
        // Replace the pair by the union, keeping volume order.
        patterns->erase(patterns->begin() + j);
        patterns->erase(patterns->begin() + i);
        patterns->push_back(std::move(candidate));
        std::sort(patterns->begin(), patterns->end(), by_volume);
        merged_any = true;
      }
    }
  }
}

}  // namespace sdadcs::core
