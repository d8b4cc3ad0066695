#include "core/search.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <limits>
#include <optional>
#include <set>

#include "core/match_kernel.h"
#include "core/optimistic.h"
#include "core/productivity.h"
#include "core/support.h"
#include "core/team_lease.h"
#include "stats/chi_squared.h"
#include "util/fork_join_team.h"
#include "util/logging.h"

namespace sdadcs::core {

namespace {

// Combinations per member of one batch on the team. Members claim a
// batch's combinations one at a time and wait for each other only at
// its end; a larger batch waits less on its slowest member, while its
// later combinations mine against an older top-k.
constexpr size_t kBatchCombosPerMember = 16;

// Total regions killed by monotone rules so far — used to decide whether
// a combination produced anything worth extending.
uint64_t MonotoneKills(const MiningCounters& c) {
  return c.pruned_lookup + c.pruned_min_support + c.pruned_low_expected +
         c.pruned_redundant + c.pruned_pure;
}

// The candidate list one level of the lattice evaluates, in order:
// GenerateLevelCandidates under the per-level cap (overflow charged to
// counters->truncated_candidates), cheapest first.
std::vector<std::vector<int>> BuildLevelFrontier(
    const data::Dataset& db, const MinerConfig& cfg, int level,
    const std::vector<int>& attrs,
    const std::vector<std::vector<int>>& alive_prev,
    MiningCounters* counters) {
  std::vector<std::vector<int>> candidates =
      GenerateLevelCandidates(level, attrs, alive_prev);
  const size_t cap = cfg.max_candidates_per_level;
  if (cap > 0 && candidates.size() > cap) {
    counters->truncated_candidates += candidates.size() - cap;
    candidates.resize(cap);
  }
  // Cheap-first ordering: combinations with fewer continuous attributes
  // are single-scan STUCCO enumerations (or smaller SDAD spaces), so
  // running them first establishes a top-k threshold before the
  // expensive recursive-split combinations — more optimistic pruning,
  // and the first anytime partial arrives within milliseconds. Applied
  // after the candidate cap so the evaluated SET is unchanged; the
  // stable sort keeps the order deterministic.
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
  return candidates;
}

// A combination mined on a team member, held until it commits.
struct TeamResult {
  bool alive = false;
  // Checkpoints passed, for the node budget (RunState::DeferCharges).
  uint64_t nodes = 0;
  MiningCounters counters;
  ComboLog log;
};

// Applies a combination's top-k offers to the run's top-k exactly as if
// it had mined against it, and returns true. Returns false, with the
// top-k untouched, when one of its threshold tests would have come out
// otherwise against it: the combination must be mined again. The tests
// depend on the top-k through nothing else.
bool ReplayOffers(const ComboLog& log, TopK* topk) {
  // Offers move the threshold, so they replay on a copy; without any,
  // the ranges are checked against the run's top-k itself.
  std::optional<TopK> copy;
  if (!log.offered.empty()) copy = *topk;
  const TopK& replay = copy ? *copy : *topk;
  const size_t steps = std::max(log.thresholds.size(), log.offered.size());
  for (size_t m = 0; m < steps; ++m) {
    if (m < log.thresholds.size() &&
        !(log.thresholds[m].at_least <= replay.threshold() &&
          replay.threshold() < log.thresholds[m].below)) {
      return false;
    }
    if (m < log.offered.size()) copy->Insert(log.offered[m]);
  }
  if (copy) *topk = std::move(*copy);
  return true;
}

// The shape of a root row set: the attributes of the items naming it
// (RootAxes), its prefix's categorical attributes and the continuous
// ones whose missing values its root filter drops, in Itemset order.
std::vector<int> RootShape(const Itemset& root) {
  std::vector<int> shape;
  shape.reserve(root.size());
  for (const Item& item : root.items()) shape.push_back(item.attr);
  return shape;
}

size_t BitsBytes(const std::vector<std::vector<uint64_t>>& groups) {
  size_t words = 0;
  for (const std::vector<uint64_t>& g : groups) words += g.size();
  return words * sizeof(uint64_t);
}

size_t BitsBytes(const RootAxis& axis) {
  return axis.right.size() * sizeof(uint64_t);
}

}  // namespace

// One member of the team a level mines on: a context of its own (split
// scratch, memos, per-combination counters) over a copy of the run's
// top-k, and a search with memos of its own, which ShareMemos fills
// with every thread's entries at each level's start.
struct LatticeSearch::Member {
  explicit Member(const LatticeSearch& run)
      : ctx(run.ctx_),
        topk(*run.ctx_.topk),
        copied_at(run.ctx_.topk->version()) {
    ctx.topk = &topk;
    ctx.topk_is_copy = true;
    ctx.counters = &counters;
    ctx.team = nullptr;
    ctx.combo = ComboLog();
    ctx.run = RunState(run.ctx_.run.control());
    ctx.run.DeferCharges();
    search = std::make_unique<LatticeSearch>(ctx);
    search->CopyMemos(run);
  }
  Member(const Member&) = delete;
  Member& operator=(const Member&) = delete;

  // Mines `combo` into `out` against a copy of `run_topk`, which is
  // copied again only when it changed or this member inserted into it.
  void Mine(const TopK& run_topk, const std::vector<int>& combo,
            TeamResult* out) {
    if (topk.version() != copied_at || copied_at != run_topk.version()) {
      topk = run_topk;
      copied_at = run_topk.version();
    }
    counters = MiningCounters();
    out->alive = search->Mine(combo);
    out->nodes = ctx.run.TakeDeferred();
    out->counters = counters;
    out->log = std::move(ctx.combo);
    ctx.combo = ComboLog();
  }

  MiningContext ctx;
  TopK topk;
  // The run's TopK::version() when `topk` was copied from it.
  uint64_t copied_at;
  MiningCounters counters;
  std::unique_ptr<LatticeSearch> search;
};

// One level of the search: its frontier and what its committed
// combinations left.
struct LatticeSearch::Level {
  int number = 0;
  std::vector<std::vector<int>> candidates;
  size_t committed = 0;
  std::vector<std::vector<int>> alive;
  std::vector<Itemset> prune_entries;
};

// Which root parts one level's combinations read. Every combination
// over a root shape reads the group bits of its roots (axis -1) and the
// side bits of each of its continuous attributes, so a part no
// combination of the level reads is read by no later level either: a
// later combination over the shape that reads it has a continuous
// attribute more, without missing values, whose removal leaves a
// combination of this level that reads it.
struct LatticeSearch::RootReads {
  // Per (shape, axis), how many of the level's combinations read it.
  std::map<std::pair<std::vector<int>, int>, uint32_t> readers;
  // The run's last level: no combination reads a part after it.
  bool last_level = false;

  RootReads(const MiningContext& ctx,
            const std::vector<std::vector<int>>& combos, bool last)
      : last_level(last) {
    for (const std::vector<int>& combo : combos) {
      std::vector<int> shape;
      std::vector<int> cont;
      for (int a : combo) {
        if (ctx.db->is_categorical(a)) {
          shape.push_back(a);
          continue;
        }
        cont.push_back(a);
        auto bounds = ctx.root_bounds.find(a);
        SDADCS_CHECK(bounds != ctx.root_bounds.end());
        if (bounds->second.any_missing) shape.push_back(a);
      }
      if (cont.empty()) continue;
      ++readers[{shape, -1}];
      for (int a : cont) ++readers[{shape, a}];
    }
  }

  // Whether a combination of the level reads the part.
  bool Read(const std::vector<int>& shape, int axis) const {
    return readers.count({shape, axis}) > 0;
  }

  // Whether a combination other than the one computing the part may
  // read it: another of this level, or one of a later level.
  bool Reread(const std::vector<int>& shape, int axis) const {
    if (!last_level) return true;
    auto it = readers.find({shape, axis});
    return it != readers.end() && it->second > 1;
  }
};

LatticeSearch::LatticeSearch(MiningContext& ctx) : ctx_(ctx) {
  // Four bytes per analysis value of the continuous attributes: half
  // their columns, and on a paged dataset at most half its resident cap.
  root_memo_budget_ =
      4 * ctx.gi->base_selection().size() * ctx.root_bounds.size();
  if (ctx.db->paged()) {
    const size_t cap = ctx.db->chunk_store()->stats().max_resident_bytes;
    if (cap > 0) root_memo_budget_ = std::min(root_memo_budget_, cap / 2);
  }
}

LatticeSearch::~LatticeSearch() = default;

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

void LatticeSearch::Run(const std::vector<int>& attrs) {
  const int max_depth =
      std::min<int>(ctx_.cfg->max_depth, static_cast<int>(attrs.size()));
  std::vector<std::vector<int>> alive_prev;

  for (int level = 1; level <= max_depth; ++level) {
    Level lv;
    lv.number = level;
    lv.candidates = BuildLevelFrontier(*ctx_.db, *ctx_.cfg, level, attrs,
                                       alive_prev, ctx_.counters);
    const size_t n = lv.candidates.size();
    if (n == 0) break;
    // Candidate generation for a wide level is itself non-trivial work;
    // re-check the limits before committing to the level.
    if (ctx_.run.CheckNow()) {
      ctx_.counters->abandoned_candidates += n;
      break;
    }
    ReportProgress(level, 0, n);
    root_reads_ = std::make_shared<const RootReads>(ctx_, lv.candidates,
                                                    level == max_depth);
    ShareMemos();
    MineLevel(&lv);
    ctx_.counters->abandoned_candidates += n - lv.committed;
    if (ctx_.run.stopped()) break;
    for (Itemset& entry : lv.prune_entries) {
      ctx_.prune_table->Insert(std::move(entry));
    }
    std::sort(lv.alive.begin(), lv.alive.end());
    alive_prev = std::move(lv.alive);
    if (alive_prev.empty()) break;
  }
}

void LatticeSearch::MineInline(const std::vector<int>& combo, Level* level) {
  // Mined against the run's own top-k and counters, which hold its
  // offers and counts already.
  const bool alive = Mine(combo);
  Commit(combo, alive, &ctx_.combo.prune_entries, level);
}

void LatticeSearch::MineLevel(Level* level) {
  const size_t n = level->candidates.size();
  std::vector<TeamResult> results;
  while (level->committed < n && !ctx_.run.CheckNow()) {
    // A level of one combination mines here, and so does a mine without
    // the team (a serial mine; another mine holds it, or leaves it too
    // few cores) until it is back.
    size_t width = 0;
    util::ForkJoinTeam* team = n >= 2 && ctx_.team != nullptr
                                   ? ctx_.team->AvailableTeam(&width)
                                   : nullptr;
    if (team == nullptr) {
      MineInline(level->candidates[level->committed], level);
      continue;
    }
    // Every member mines against the run's top-k as it stands now.
    const size_t first = level->committed;
    const size_t batch = std::min(n - first, kBatchCombosPerMember * width);
    const size_t slots = std::min(width, batch);
    while (members_.size() < slots) {
      members_.push_back(std::make_unique<Member>(*this));
    }
    results.assign(batch, TeamResult());
    std::atomic<size_t> next{0};
    team->Run(slots, [&](size_t slot) {
      Member& member = *members_[slot];
      for (size_t i = next.fetch_add(1);
           i < batch && !member.ctx.run.CheckNow();
           i = next.fetch_add(1)) {
        member.Mine(*ctx_.topk, level->candidates[first + i], &results[i]);
      }
    });
    for (size_t i = 0; i < batch; ++i) {
      // After a stop, nothing commits that the stop may have cut short.
      if (ctx_.run.CheckNow()) return;
      const std::vector<int>& combo = level->candidates[first + i];
      TeamResult& result = results[i];
      // Nodes the budget covers would not stop an inline mine either;
      // a combination whose nodes it does not cover is mined again here,
      // to stop where an inline mine stops.
      if (ctx_.run.control().Covers(result.nodes) &&
          ReplayOffers(result.log, ctx_.topk)) {
        ctx_.run.ChargeDeferred(result.nodes);
        ctx_.counters->Add(result.counters);
        Commit(combo, result.alive, &result.log.prune_entries, level);
      } else {
        // Mined again on this thread, against the run's top-k.
        MineInline(combo, level);
      }
    }
  }
}

void LatticeSearch::ShareMemos() {
  PruneRootMemo();
  for (const std::unique_ptr<Member>& member : members_) {
    TakeMemos(member->search.get());
    ctx_.TakeMemos(&member->ctx);
  }
  for (const std::unique_ptr<Member>& member : members_) {
    member->search->CopyMemos(*this);
    member->ctx.CopyMemos(ctx_);
  }
}

void LatticeSearch::TakeMemos(LatticeSearch* other) {
  base_covers_.merge(other->base_covers_);
  // A part is taken when the current level reads it and it fits.
  auto takes = [this](const std::vector<int>& shape, int axis,
                      size_t bytes) {
    return root_memo_bytes_ + bytes <= root_memo_budget_ &&
           (root_reads_ == nullptr || root_reads_->Read(shape, axis));
  };
  for (auto& [root, theirs] : other->root_bits_) {
    const std::vector<int> shape = RootShape(root);
    RootBits& mine = root_bits_[root];
    if (mine.groups == nullptr && theirs.groups != nullptr &&
        takes(shape, -1, BitsBytes(*theirs.groups))) {
      root_memo_bytes_ += BitsBytes(*theirs.groups);
      mine.groups = std::move(theirs.groups);
    }
    for (auto& [attr, axis] : theirs.axes) {
      if (!mine.axes.contains(attr) &&
          takes(shape, attr, BitsBytes(*axis))) {
        root_memo_bytes_ += BitsBytes(*axis);
        mine.axes.emplace(attr, std::move(axis));
      }
    }
    if (mine.groups == nullptr && mine.axes.empty()) root_bits_.erase(root);
  }
  root_memo_peak_ = std::max(root_memo_peak_, root_memo_bytes_);
}

void LatticeSearch::CopyMemos(const LatticeSearch& other) {
  base_covers_ = other.base_covers_;
  root_bits_ = other.root_bits_;
  root_memo_bytes_ = other.root_memo_bytes_;
  root_memo_peak_ = std::max(root_memo_peak_, root_memo_bytes_);
  root_reads_ = other.root_reads_;
}

LatticeSearch::RootMemoStats LatticeSearch::root_memo() const {
  return {root_memo_bytes_, root_memo_peak_, root_memo_budget_};
}

void LatticeSearch::PruneRootMemo() {
  if (root_reads_ == nullptr) return;
  for (auto it = root_bits_.begin(); it != root_bits_.end();) {
    const std::vector<int> shape = RootShape(it->first);
    RootBits& bits = it->second;
    // Every reader of a root's axis reads its group bits too.
    if (!root_reads_->Read(shape, -1)) {
      if (bits.groups != nullptr) root_memo_bytes_ -= BitsBytes(*bits.groups);
      for (const auto& [attr, axis] : bits.axes) {
        root_memo_bytes_ -= BitsBytes(*axis);
      }
      it = root_bits_.erase(it);
      continue;
    }
    std::erase_if(bits.axes, [&](const auto& entry) {
      if (root_reads_->Read(shape, entry.first)) return false;
      root_memo_bytes_ -= BitsBytes(*entry.second);
      return true;
    });
    ++it;
  }
}

void LatticeSearch::Commit(const std::vector<int>& combo, bool alive,
                           std::vector<Itemset>* prune_entries,
                           Level* level) {
  level->prune_entries.insert(level->prune_entries.end(),
                              std::make_move_iterator(prune_entries->begin()),
                              std::make_move_iterator(prune_entries->end()));
  prune_entries->clear();
  if (alive) level->alive.push_back(combo);
  ++level->committed;
  ReportProgress(level->number, level->committed, level->candidates.size());
}

void LatticeSearch::ReportProgress(int level, uint64_t done,
                                   uint64_t total) {
  if (!ctx_.run.control().has_progress_callback()) return;
  util::RunProgress progress;
  progress.level = level;
  progress.candidates_done = done;
  progress.candidates_total = total;
  progress.topk_threshold = ctx_.topk->threshold();
  progress.patterns_found = ctx_.topk->size();
  progress.best_measure = ctx_.topk->best_measure();
  progress.topk_version = ctx_.topk->version();
  if (ctx_.run.control().wants_anytime() &&
      progress.topk_version != last_improved_version_) {
    progress.improved = true;
    last_improved_version_ = progress.topk_version;
  }
  ctx_.run.control().ReportProgress(progress);
}

bool LatticeSearch::MineCombo(const std::vector<int>& combo) {
  const bool alive = Mine(combo);
  for (Itemset& entry : ctx_.combo.prune_entries) {
    ctx_.prune_table->Insert(std::move(entry));
  }
  ctx_.combo = ComboLog();
  return alive;
}

bool LatticeSearch::Mine(const std::vector<int>& combo) {
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
  // Every combination ends with its nodes charged, so how many it
  // charges does not depend on where its predecessors left off.
  (void)ctx_.run.CheckNow();
  return alive;
}

const LatticeSearch::ItemCover& LatticeSearch::BaseCover(const Item& item) {
  auto [it, inserted] =
      base_covers_.try_emplace(std::make_pair(item.attr, item.code));
  ItemCover& cover = it->second;
  if (inserted) {
    cover.rows = FilterCountItemKernel(*ctx_.db, *ctx_.gi, item,
                                       ctx_.gi->base_selection(), &cover.counts,
                                       &ctx_.split_scratch, ctx_.simd);
    ctx_.RememberBaseCounts(Itemset({item}), cover.counts.counts);
  }
  return cover;
}

RootBits LatticeSearch::RootAxes(const Itemset& root, const Space& space) {
  const std::vector<int> shape = RootShape(root);
  RootBits& held = root_bits_[root];
  RootBits bits;
  bits.groups = held.groups;
  if (bits.groups == nullptr) {
    bits.groups = std::make_shared<const std::vector<std::vector<uint64_t>>>(
        GroupBits(*ctx_.gi, space.rows));
    const size_t bytes = BitsBytes(*bits.groups);
    if (Keeps(shape, -1, bytes)) {
      held.groups = bits.groups;
      root_memo_bytes_ += bytes;
    }
  }
  for (const AxisBound& bound : space.bounds) {
    auto it = held.axes.find(bound.attr);
    if (it != held.axes.end()) {
      bits.axes.emplace(bound.attr, it->second);
      continue;
    }
    auto axis = std::make_shared<const RootAxis>(
        CutRootAxis(*ctx_.db, space.rows, bound, ctx_.cfg->split,
                    &ctx_.split_scratch, ctx_.simd));
    const size_t bytes = BitsBytes(*axis);
    if (Keeps(shape, bound.attr, bytes)) {
      held.axes.emplace(bound.attr, axis);
      root_memo_bytes_ += bytes;
    }
    bits.axes.emplace(bound.attr, std::move(axis));
  }
  if (held.groups == nullptr && held.axes.empty()) root_bits_.erase(root);
  root_memo_peak_ = std::max(root_memo_peak_, root_memo_bytes_);
  return bits;
}

bool LatticeSearch::Keeps(const std::vector<int>& shape, int axis,
                          size_t bytes) const {
  return root_memo_bytes_ + bytes <= root_memo_budget_ &&
         (root_reads_ == nullptr || root_reads_->Reread(shape, axis));
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
      scanned.rows = FilterCountItemKernel(*ctx_.db, *ctx_.gi, item, rows,
                                           &scanned.counts,
                                           &ctx_.split_scratch, ctx_.simd);
      ctx_.RememberBaseCounts(candidate, scanned.counts.counts);
    }
    // Partial-itemset minimum deviation: supports only shrink as items
    // are added, so a below-δ prefix can be abandoned outright.
    if (BelowMinimumDeviation(cover->counts.Supports(*ctx_.gi),
                              ctx_.cfg->delta)) {
      if (ctx_.cfg->meaningful_pruning) ctx_.FilePrune(candidate);
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
    if (cfg.meaningful_pruning) ctx_.FilePrune(itemset);
    ++counters.pruned_min_support;
    return;
  }
  if (LowExpectedCount(gc.counts, ctx_.group_sizes)) {
    if (cfg.meaningful_pruning) ctx_.FilePrune(itemset);
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
        ctx_.FilePrune(itemset);
        ++counters.pruned_redundant;
        return;
      }
    }
  }
  *alive = true;

  if (cfg.PureSpacePruningOn() && purity >= 1.0 && gc.total() > 0.0) {
    ctx_.FilePrune(itemset);
    ++counters.pruned_pure;
  } else if (cfg.ChiBoundPruningOn()) {
    // STUCCO chi-square bound: no specialization can reach significance.
    const int dof = ctx_.gi->num_groups() - 1;
    double critical = ctx_.ChiCritical(cfg.AlphaForLevel(level + 1), dof);
    if (MaxChildChiSquared(gc.counts, ctx_.group_sizes) < critical) {
      ctx_.FilePrune(itemset);
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
  ctx_.Offer(pattern);
}

void LatticeSearch::EvaluateSdadLeaf(const Itemset& cat_items,
                                     const std::vector<int>& cont_attrs,
                                     const data::Selection& rows,
                                     const GroupCounts& counts,
                                     bool* alive) {
  if (ctx_.run.CheckPoint(RunState::NodeWeight(rows.size()))) return;
  std::vector<int> missing_attrs;
  const SdadCall call =
      MakeRootCall(ctx_, cat_items, cont_attrs, rows, counts, &missing_attrs);
  if (call.space.rows.empty()) return;
  // The root rows are the prefix's cover minus the rows missing one of
  // `missing_attrs`, so those two name the row set: the prefix's items
  // plus an unbounded interval on each attribute of `missing_attrs`.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<Item> root_items = cat_items.items();
  for (int attr : missing_attrs) {
    root_items.push_back(Item::Interval(attr, -kInf, kInf));
  }
  const RootBits bits = RootAxes(Itemset(std::move(root_items)), call.space);

  MiningCounters& counters = *ctx_.counters;
  const uint64_t evaluated_before = counters.partitions_evaluated;
  const uint64_t kills_before = MonotoneKills(counters);

  std::vector<ContrastPattern> patterns = RunSdadCs(ctx_, call, &bits);

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
    ctx_.Offer(p);
  }
}

}  // namespace sdadcs::core
