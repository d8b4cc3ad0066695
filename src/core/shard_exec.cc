#include "core/shard_exec.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "data/chunks.h"
#include "util/fork_join_team.h"
#include "util/logging.h"

namespace sdadcs::core {

namespace {

// The running mines (one ShardExec each), the process's team, and the
// mine the team serves (null while it is free).
std::mutex team_mu;
std::atomic<size_t> running_mines{0};
std::unique_ptr<util::ForkJoinTeam> process_team;  // guarded by team_mu
std::atomic<const ShardExec*> team_holder{nullptr};
const size_t kCores = std::max(1u, std::thread::hardware_concurrency());

// A filter kernel's output: the matching rows and their group counts.
struct Filtered {
  data::Selection rows;
  GroupCounts counts;
};

// The rows a scan input covers, and its slice inside one shard's range
// (rows stay ascending; a space keeps its bounds).
const data::Selection& RowsOf(const data::Selection& sel) { return sel; }
const data::Selection& RowsOf(const Space& space) { return space.rows; }

data::Selection SliceOf(const data::Selection& sel,
                        const data::ShardRange& range) {
  return data::ToSelection(data::SliceSelection(sel, range));
}

Space SliceOf(const Space& space, const data::ShardRange& range) {
  Space slice;
  slice.bounds = space.bounds;
  slice.rows = SliceOf(space.rows, range);
  return slice;
}

// The one fan-out behind every sharded scan. `scan(input, scratch)`
// runs one kernel. Without a multi-shard plan, or below the fan-out
// floor, it runs once on this thread over `input` with the context's
// scratch and its result is returned as is. Otherwise the team runs one
// task per shard: each holds the chunks of the columns `attrs()` names
// pinned over the shard's rows (a residency hint for paged datasets),
// runs `scan` over its slice with the shard's scratch, and `merge` folds
// the per-shard results, in plan order, into one. A mine without the
// team, or one that shares the process with another running mine, scans
// inline instead; both take the checkpoint at the merge barrier, so a
// stop lands at the same scan either way. The checkpoint charges no
// nodes, so a run that completes is byte-identical to serial.
template <typename Input, typename Attrs, typename Scan, typename Merge>
auto FanOut(MiningContext& ctx, const Input& input, const Attrs& attrs,
            const Scan& scan, const Merge& merge) {
  const ShardExec* ex = ctx.shards;
  if (ex == nullptr || ex->plan().num_shards() < 2 ||
      RowsOf(input).size() < ShardExec::kMinFanoutRows) {
    return scan(input, &ctx.split_scratch);
  }
  size_t width = 0;
  util::ForkJoinTeam* team = ex->AvailableTeam(&width);
  if (team == nullptr || running_mines.load() > 1) {
    auto whole = scan(input, &ctx.split_scratch);
    (void)ctx.run.CheckNow();
    return whole;
  }
  const size_t n = ex->plan().num_shards();
  const std::vector<int> pinned = attrs();
  std::vector<decltype(scan(input, &ctx.split_scratch))> parts(n);
  team->Run(n, [&](size_t i) {
    const data::ShardRange& range = ex->plan().range(i);
    data::ChunkPinSet hint(*ctx.db, pinned, range.begin_row, range.end_row);
    parts[i] = scan(SliceOf(input, range), ex->scratch(i));
  });
  (void)ctx.run.CheckNow();
  return merge(std::move(parts));
}

// Merges. Shard ranges ascend and every kernel emits rows in selection
// order, so rows concatenated in plan order come out sorted with no
// sort; counts are exact small-integer doubles, so their sum is
// bit-identical to one scan of the whole selection.

// Sums the group counts `get(part)` over the shard results.
template <typename Part, typename Get>
GroupCounts SumCounts(const std::vector<Part>& parts, Get get) {
  GroupCounts sum = std::invoke(get, parts.front());
  for (size_t i = 1; i < parts.size(); ++i) {
    const GroupCounts& part = std::invoke(get, parts[i]);
    SDADCS_CHECK(part.counts.size() == sum.counts.size());
    for (size_t g = 0; g < sum.counts.size(); ++g) {
      sum.counts[g] += part.counts[g];
    }
  }
  return sum;
}

// Concatenates the rows `get(part)` of the shard results in plan order.
template <typename Part, typename Get>
data::Selection ConcatRows(const std::vector<Part>& parts, Get get) {
  size_t total = 0;
  for (const Part& part : parts) total += std::invoke(get, part).size();
  std::vector<uint32_t> rows;
  rows.reserve(total);
  for (const Part& part : parts) {
    const data::Selection& sel = std::invoke(get, part);
    rows.insert(rows.end(), sel.begin(), sel.end());
  }
  return data::Selection(std::move(rows));
}

// Merges split results by position. Every shard splits the same
// (bounds, cuts), so even a shard whose slice is empty produces the same
// cell lattice in the same mask order: cell c keeps the first shard's
// bounds, and its rows concatenate and its counts sum.
SplitResult MergeSplitCells(std::vector<SplitResult> parts) {
  const size_t num_cells = parts.front().cells.size();
  for (const SplitResult& part : parts) {
    SDADCS_CHECK(part.cells.size() == num_cells);
  }
  SplitResult out;
  out.cells.resize(num_cells);
  out.counts.reserve(num_cells);
  for (size_t c = 0; c < num_cells; ++c) {
    out.cells[c].bounds = std::move(parts.front().cells[c].bounds);
    out.cells[c].rows =
        ConcatRows(parts, [c](const SplitResult& part) -> const auto& {
          return part.cells[c].rows;
        });
    out.counts.push_back(
        SumCounts(parts, [c](const SplitResult& part) -> const auto& {
          return part.counts[c];
        }));
  }
  return out;
}

Filtered MergeFiltered(std::vector<Filtered> parts) {
  return {ConcatRows(parts, &Filtered::rows),
          SumCounts(parts, &Filtered::counts)};
}

GroupCounts MergeCounts(std::vector<GroupCounts> parts) {
  return SumCounts(parts, std::identity());
}

// The column attributes an itemset scan touches.
std::vector<int> AttrsOf(const Itemset& is) {
  std::vector<int> attrs;
  attrs.reserve(is.size());
  for (const Item& it : is.items()) attrs.push_back(it.attr);
  return attrs;
}

}  // namespace

ShardExec::ShardExec(size_t rows, size_t shards)
    : plan_(rows, shards), scratches_(plan_.num_shards()) {
  std::lock_guard<std::mutex> lock(team_mu);
  running_mines.fetch_add(1);
  const size_t width = plan_.num_shards();
  if (width < 2) return;
  if (process_team == nullptr) {
    process_team =
        std::make_unique<util::ForkJoinTeam>(std::min(width, kCores));
    team_holder.store(this);
  }
  team_ = process_team.get();
  team_width_ = std::min(width, team_->width());
}

ShardExec::~ShardExec() {
  const ShardExec* self = this;
  team_holder.compare_exchange_strong(self, nullptr);
  std::lock_guard<std::mutex> lock(team_mu);
  if (running_mines.fetch_sub(1) == 1) process_team.reset();
}

util::ForkJoinTeam* ShardExec::AvailableTeam(size_t* width) const {
  if (team_ == nullptr) return nullptr;
  const ShardExec* holder = team_holder.load();
  if (holder != this && (holder != nullptr ||
                         !team_holder.compare_exchange_strong(holder, this))) {
    return nullptr;
  }
  const size_t others = running_mines.load() - 1;
  *width = std::min(team_width_, kCores > others ? kCores - others : 0);
  return *width >= 2 ? team_ : nullptr;
}

GroupCounts CountMatchesSharded(MiningContext& ctx, const Itemset& itemset,
                                const data::Selection& sel) {
  return FanOut(
      ctx, sel, [&] { return AttrsOf(itemset); },
      [&](const data::Selection& rows, SplitScratch* scratch) {
        return CountMatchesKernel(*ctx.db, *ctx.gi, itemset, rows, scratch,
                                  ctx.simd);
      },
      MergeCounts);
}

data::Selection FilterCountItemSharded(MiningContext& ctx, const Item& item,
                                       const data::Selection& sel,
                                       GroupCounts* gc) {
  Filtered out = FanOut(
      ctx, sel, [&] { return std::vector<int>{item.attr}; },
      [&](const data::Selection& rows, SplitScratch* scratch) {
        Filtered f;
        f.rows = FilterCountItemKernel(*ctx.db, *ctx.gi, item, rows,
                                       &f.counts, scratch, ctx.simd);
        return f;
      },
      MergeFiltered);
  *gc = std::move(out.counts);
  return std::move(out.rows);
}

data::Selection FilterAllPresentSharded(MiningContext& ctx,
                                        const std::vector<int>& cont_attrs,
                                        const data::Selection& sel,
                                        GroupCounts* gc) {
  Filtered out = FanOut(
      ctx, sel, [&] { return cont_attrs; },
      [&](const data::Selection& rows, SplitScratch* scratch) {
        Filtered f;
        f.rows = FilterAllPresentKernel(*ctx.db, *ctx.gi, cont_attrs, rows,
                                        &f.counts, scratch, ctx.simd);
        return f;
      },
      MergeFiltered);
  *gc = std::move(out.counts);
  return std::move(out.rows);
}

SplitResult SplitAndCountSharded(MiningContext& ctx, const Space& space,
                                 const std::vector<double>& cuts) {
  return FanOut(
      ctx, space,
      [&] {
        std::vector<int> attrs;
        for (int axis : SplittableAxes(cuts)) {
          attrs.push_back(space.bounds[axis].attr);
        }
        return attrs;
      },
      [&](const Space& part, SplitScratch* scratch) {
        return SplitAndCount(*ctx.db, *ctx.gi, part, cuts, scratch,
                             ctx.simd);
      },
      MergeSplitCells);
}

}  // namespace sdadcs::core
