#include "core/search.h"

#include <algorithm>
#include <limits>
#include <set>

#include "core/anytime.h"
#include "core/match_kernel.h"
#include "core/optimistic.h"
#include "core/productivity.h"
#include "core/shard_exec.h"
#include "core/support.h"
#include "stats/chi_squared.h"
#include "util/logging.h"

namespace sdadcs::core {

namespace {

// Total regions killed by monotone rules so far — used to decide whether
// a combination produced anything worth extending.
uint64_t MonotoneKills(const MiningCounters& c) {
  return c.pruned_lookup + c.pruned_min_support + c.pruned_low_expected +
         c.pruned_redundant + c.pruned_pure;
}

}  // namespace

std::vector<std::vector<int>> GenerateLevelCandidates(
    int level, const std::vector<int>& attrs,
    const std::vector<std::vector<int>>& alive_prev) {
  std::vector<std::vector<int>> candidates;
  if (level == 1) {
    for (int a : attrs) candidates.push_back({a});
    return candidates;
  }
  auto is_alive = [&alive_prev](const std::vector<int>& combo) {
    return std::binary_search(alive_prev.begin(), alive_prev.end(), combo);
  };
  // Apriori-style join: extend each alive combination with a larger
  // attribute, then require every (level-1)-subset to be alive.
  std::set<std::vector<int>> seen;
  for (const std::vector<int>& base : alive_prev) {
    if (static_cast<int>(base.size()) != level - 1) continue;
    for (int a : attrs) {
      if (a <= base.back()) continue;
      std::vector<int> combo = base;
      combo.push_back(a);
      if (seen.count(combo) > 0) continue;
      bool all_alive = true;
      for (size_t drop = 0; drop + 1 < combo.size() && all_alive; ++drop) {
        std::vector<int> sub = combo;
        sub.erase(sub.begin() + drop);
        all_alive = is_alive(sub);
      }
      if (all_alive) {
        seen.insert(combo);
        candidates.push_back(std::move(combo));
      }
    }
  }
  return candidates;
}

std::vector<std::vector<int>> BuildLevelFrontier(
    const data::Dataset& db, const MinerConfig& cfg, int level,
    const std::vector<int>& attrs,
    const std::vector<std::vector<int>>& alive_prev, bool cheap_first,
    MiningCounters* counters) {
  std::vector<std::vector<int>> candidates =
      GenerateLevelCandidates(level, attrs, alive_prev);
  const size_t cap = cfg.max_candidates_per_level;
  if (cap > 0 && candidates.size() > cap) {
    counters->truncated_candidates += candidates.size() - cap;
    candidates.resize(cap);
  }
  if (cheap_first) {
    // Cheap-first ordering: combinations with fewer continuous
    // attributes are single-scan STUCCO enumerations (or smaller SDAD
    // spaces), so running them first establishes a top-k threshold
    // before the expensive recursive-split combinations — more
    // optimistic pruning, and the first anytime partial arrives within
    // milliseconds. Applied after the candidate cap so the evaluated
    // SET is unchanged; the stable sort keeps the order deterministic,
    // so results are identical across runs and kernels (up to top-k
    // boundary ties, which the goldens pin).
    auto num_cont = [&db](const std::vector<int>& combo) {
      size_t c = 0;
      for (int a : combo) {
        if (db.is_continuous(a)) ++c;
      }
      return c;
    };
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&num_cont](const std::vector<int>& a,
                                 const std::vector<int>& b) {
                       return num_cont(a) < num_cont(b);
                     });
  }
  return candidates;
}

void LatticeSearch::Run(const std::vector<int>& attrs) {
  const int max_depth =
      std::min<int>(ctx_.cfg->max_depth, static_cast<int>(attrs.size()));
  std::vector<std::vector<int>> alive_prev;

  for (int level = 1; level <= max_depth; ++level) {
    std::vector<std::vector<int>> candidates =
        BuildLevelFrontier(*ctx_.db, *ctx_.cfg, level, attrs, alive_prev,
                           /*cheap_first=*/true, ctx_.counters);
    if (candidates.empty()) break;
    // Candidate generation for a wide level is itself non-trivial work;
    // re-check the limits before committing to the level.
    if (ctx_.run.CheckNow()) {
      ctx_.counters->abandoned_candidates += candidates.size();
      break;
    }
    ReportProgress(level, 0, candidates.size());

    std::vector<std::vector<int>> alive_cur;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (ctx_.run.stopped()) {
        ctx_.counters->abandoned_candidates += candidates.size() - i;
        break;
      }
      progress_level_ = level;
      progress_done_ = i;
      progress_total_ = candidates.size();
      if (MineCombo(candidates[i])) alive_cur.push_back(candidates[i]);
      ReportProgress(level, i + 1, candidates.size());
    }
    if (ctx_.run.stopped()) break;
    std::sort(alive_cur.begin(), alive_cur.end());
    alive_prev = std::move(alive_cur);
    if (alive_prev.empty()) break;
  }
}

void LatticeSearch::ReportProgress(int level, uint64_t done,
                                   uint64_t total) const {
  if (!ctx_.run.control().has_progress_callback()) return;
  util::RunProgress progress;
  progress.level = level;
  progress.candidates_done = done;
  progress.candidates_total = total;
  progress.topk_threshold = ctx_.topk->threshold();
  FillProgressFromTopK(ctx_.run.control(), *ctx_.topk,
                       &last_improved_version_, &progress);
  ctx_.run.control().ReportProgress(progress);
}

void LatticeSearch::MaybeReportInsert() const {
  // Only fires when there is an improvement to stream: anytime runs
  // with an advanced top-k. Keeps the callback cadence bounded by the
  // number of top-k improvements, not by leaf count.
  if (!ctx_.run.control().wants_anytime()) return;
  if (!ctx_.run.control().has_progress_callback()) return;
  if (ctx_.topk->version() == last_improved_version_) return;
  ReportProgress(progress_level_, progress_done_, progress_total_);
}

bool LatticeSearch::MineCombo(const std::vector<int>& combo) {
  std::vector<int> cat_attrs;
  std::vector<int> cont_attrs;
  for (int a : combo) {
    if (ctx_.db->is_categorical(a)) {
      cat_attrs.push_back(a);
    } else {
      cont_attrs.push_back(a);
    }
  }
  // The base selection holds exactly the group members, so its
  // per-group counts are the group sizes.
  GroupCounts base_counts;
  base_counts.counts = GroupSizes(*ctx_.gi);
  bool alive = false;
  EnumerateCategorical(cat_attrs, cont_attrs, 0, Itemset(),
                       ctx_.gi->base_selection(), base_counts, &alive);
  return alive;
}

const LatticeSearch::ItemCover& LatticeSearch::BaseCover(const Item& item) {
  auto [it, inserted] =
      base_covers_.try_emplace(std::make_pair(item.attr, item.code));
  ItemCover& cover = it->second;
  if (inserted) {
    cover.rows = FilterCountItemSharded(ctx_, item, ctx_.gi->base_selection(),
                                        &cover.counts);
    ctx_.RememberBaseCounts(Itemset({item}), cover.counts.counts);
  }
  return cover;
}

double LatticeSearch::RootCut(const Itemset& root,
                              const data::Selection& rows,
                              const AxisBound& bound) {
  auto [it, inserted] = root_cuts_[root].try_emplace(bound.attr);
  if (inserted) {
    it->second = PartitionCut(*ctx_.db, rows, bound, ctx_.cfg->split,
                              &ctx_.split_scratch.values,
                              &ctx_.split_scratch.select, ctx_.simd);
  }
  return it->second;
}

void LatticeSearch::EnumerateCategorical(const std::vector<int>& cat_attrs,
                                         const std::vector<int>& cont_attrs,
                                         size_t next, const Itemset& prefix,
                                         const data::Selection& rows,
                                         const GroupCounts& counts,
                                         bool* alive) {
  if (next == cat_attrs.size()) {
    if (cont_attrs.empty()) {
      EvaluateCategoricalLeaf(prefix, rows, counts, alive);
    } else {
      EvaluateSdadLeaf(prefix, cont_attrs, rows, counts, alive);
    }
    return;
  }
  const int attr = cat_attrs[next];
  const data::CategoricalColumn& col = ctx_.db->categorical(attr);
  for (int32_t code = 0; code < col.cardinality(); ++code) {
    // Each value expansion scans `rows` once; checkpoint per value.
    if (ctx_.run.CheckPoint(RunState::NodeWeight(rows.size()))) return;
    Item item = Item::Categorical(attr, code);
    Itemset candidate = prefix.WithItem(item);
    if (ctx_.cfg->meaningful_pruning &&
        ctx_.prune_table->CanPrune(candidate)) {
      ++ctx_.counters->pruned_lookup;
      continue;
    }
    // Fused scan: filter to the item's rows and count groups in one
    // pass. Against the base selection the run's memo already holds
    // that cover.
    ItemCover scanned;
    const ItemCover* cover = &scanned;
    if (prefix.empty()) {
      cover = &BaseCover(item);
    } else {
      scanned.rows =
          FilterCountItemSharded(ctx_, item, rows, &scanned.counts);
      ctx_.RememberBaseCounts(candidate, scanned.counts.counts);
    }
    // Partial-itemset minimum deviation: supports only shrink as items
    // are added, so a below-δ prefix can be abandoned outright.
    if (BelowMinimumDeviation(cover->counts.Supports(*ctx_.gi),
                              ctx_.cfg->delta)) {
      if (ctx_.cfg->meaningful_pruning) ctx_.prune_table->Insert(candidate);
      ++ctx_.counters->pruned_min_support;
      continue;
    }
    EnumerateCategorical(cat_attrs, cont_attrs, next + 1, candidate,
                         cover->rows, cover->counts, alive);
  }
}

void LatticeSearch::EvaluateCategoricalLeaf(const Itemset& itemset,
                                            const data::Selection& rows,
                                            const GroupCounts& gc,
                                            bool* alive) {
  if (itemset.empty()) return;
  if (ctx_.run.CheckPoint(RunState::NodeWeight(rows.size()))) return;
  MiningCounters& counters = *ctx_.counters;
  const MinerConfig& cfg = *ctx_.cfg;
  ++counters.partitions_evaluated;

  std::vector<double> supports = gc.Supports(*ctx_.gi);
  double diff = SupportDifference(supports);
  double purity = PurityRatio(supports);
  double measure = MeasureValue(cfg.measure, supports);
  const int level = static_cast<int>(itemset.size());
  const double alpha_level = cfg.AlphaForLevel(level);

  if (BelowMinimumDeviation(supports, cfg.delta)) {
    if (cfg.meaningful_pruning) ctx_.prune_table->Insert(itemset);
    ++counters.pruned_min_support;
    return;
  }
  if (LowExpectedCount(gc.counts, ctx_.group_sizes)) {
    if (cfg.meaningful_pruning) ctx_.prune_table->Insert(itemset);
    ++counters.pruned_low_expected;
    return;
  }
  if (cfg.RedundancyPruningOn() && level >= 2) {
    for (int i = 0; i < level; ++i) {
      Itemset subset = itemset.WithoutAttribute(itemset.item(i).attr);
      const std::vector<double>& sub_supports = ctx_.BaseSupports(subset);
      if (StatisticallySameDifference(diff, SupportDifference(sub_supports),
                                      sub_supports, ctx_.group_sizes,
                                      cfg.alpha)) {
        ctx_.prune_table->Insert(itemset);
        ++counters.pruned_redundant;
        return;
      }
    }
  }
  *alive = true;

  if (cfg.PureSpacePruningOn() && purity >= 1.0 && gc.total() > 0.0) {
    ctx_.prune_table->Insert(itemset);
    ++counters.pruned_pure;
  } else if (cfg.ChiBoundPruningOn()) {
    // STUCCO chi-square bound: no specialization can reach significance.
    const int dof = ctx_.gi->num_groups() - 1;
    double critical = ctx_.ChiCritical(cfg.AlphaForLevel(level + 1), dof);
    if (MaxChildChiSquared(gc.counts, ctx_.group_sizes) < critical) {
      ctx_.prune_table->Insert(itemset);
      ++counters.pruned_oe_chi2;
    }
  }

  if (diff <= cfg.delta) return;
  if (gc.total() < cfg.min_coverage) return;
  ++counters.chi2_tests;
  stats::ChiSquaredResult test =
      stats::ChiSquaredPresenceTest(gc.counts, ctx_.group_sizes);
  if (!test.valid || test.p_value >= alpha_level) return;

  ContrastPattern pattern;
  pattern.itemset = itemset;
  pattern.counts = gc.counts;
  pattern.ComputeStats(*ctx_.gi, cfg.measure);
  (void)measure;
  if (cfg.ProductivityFilterOn() && level >= 2 &&
      !IsProductive(ctx_, pattern)) {
    ++counters.unproductive;
    return;
  }
  ctx_.topk->Insert(pattern);
  MaybeReportInsert();
}

void LatticeSearch::EvaluateSdadLeaf(const Itemset& cat_items,
                                     const std::vector<int>& cont_attrs,
                                     const data::Selection& rows,
                                     const GroupCounts& counts,
                                     bool* alive) {
  if (ctx_.run.CheckPoint(RunState::NodeWeight(rows.size()))) return;
  SdadCall call;
  call.cat_items = cat_items;
  call.cont_attrs = cont_attrs;
  call.level = 1;
  call.parent_measure = 0.0;
  call.space.bounds.reserve(cont_attrs.size());
  // The root filter drops rows missing a continuous attribute. Only the
  // attributes some analysis row misses (recorded by the root-bounds
  // pass) can drop one; without any, the filter would keep `rows` whole,
  // so the prefix's rows and counts are reused.
  std::vector<int> missing_attrs;
  for (int attr : cont_attrs) {
    auto it = ctx_.root_bounds.find(attr);
    SDADCS_CHECK(it != ctx_.root_bounds.end());
    call.space.bounds.push_back({attr, it->second.lo, it->second.hi});
    if (it->second.any_missing) missing_attrs.push_back(attr);
  }
  GroupCounts root_counts;
  if (!missing_attrs.empty()) {
    call.space.rows =
        FilterAllPresentSharded(ctx_, cont_attrs, rows, &root_counts);
  } else {
    call.space.rows = rows;
    root_counts = counts;
  }
  if (call.space.rows.empty()) return;
  // The root rows are the prefix's cover minus the rows missing one of
  // `missing_attrs`, so those two name the row set: the prefix's items
  // plus an unbounded interval on each attribute of `missing_attrs`.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<Item> root_items = cat_items.items();
  for (int attr : missing_attrs) {
    root_items.push_back(Item::Interval(attr, -kInf, kInf));
  }
  const Itemset root(std::move(root_items));
  std::vector<double> cuts;
  cuts.reserve(call.space.bounds.size());
  for (const AxisBound& bound : call.space.bounds) {
    cuts.push_back(RootCut(root, call.space.rows, bound));
  }
  call.outer_db_size = static_cast<double>(call.space.rows.size());
  call.parent_supports = root_counts.Supports(*ctx_.gi);
  call.parent_diff = SupportDifference(call.parent_supports);

  MiningCounters& counters = *ctx_.counters;
  const uint64_t evaluated_before = counters.partitions_evaluated;
  const uint64_t kills_before = MonotoneKills(counters);

  std::vector<ContrastPattern> patterns = RunSdadCs(ctx_, call, &cuts);

  const uint64_t evaluated = counters.partitions_evaluated - evaluated_before;
  const uint64_t kills = MonotoneKills(counters) - kills_before;
  if (!patterns.empty() || evaluated > kills) *alive = true;

  for (ContrastPattern& p : patterns) {
    // A pattern's counts are those of its itemset over the base
    // selection: its interval items imply the root filter.
    ctx_.RememberBaseCounts(p.itemset, p.counts);
    if (ctx_.cfg->ProductivityFilterOn() && p.itemset.size() >= 2 &&
        !IsProductive(ctx_, p)) {
      ++counters.unproductive;
      continue;
    }
    ctx_.topk->Insert(p);
  }
  MaybeReportInsert();
}

}  // namespace sdadcs::core
