#include "stream/window_miner.h"

#include <algorithm>
#include <cmath>

#include "data/group_info.h"
#include "util/logging.h"

namespace sdadcs::stream {

namespace {

// Jaccard overlap of two (lo, hi] intervals, infinities clamped to the
// other interval's extent.
double IntervalJaccard(double lo_a, double hi_a, double lo_b, double hi_b) {
  double lo_i = std::max(lo_a, lo_b);
  double hi_i = std::min(hi_a, hi_b);
  if (hi_i <= lo_i) return 0.0;
  double lo_u = std::min(lo_a, lo_b);
  double hi_u = std::max(hi_a, hi_b);
  if (std::isinf(lo_u) || std::isinf(hi_u)) {
    // Unbounded on matching sides: treat equal-unbounded ends as full
    // agreement on that side and compare the finite ends.
    bool lo_match = std::isinf(lo_a) == std::isinf(lo_b);
    bool hi_match = std::isinf(hi_a) == std::isinf(hi_b);
    return lo_match && hi_match ? 1.0 : 0.0;
  }
  return (hi_i - lo_i) / (hi_u - lo_u);
}

}  // namespace

util::StatusOr<core::MiningResult> MineTailWindow(
    const data::Dataset& db, const core::MineRequest& request,
    const core::MinerConfig& config, size_t window_rows) {
  const size_t rows = db.num_rows();
  const size_t take = window_rows == 0 ? rows : std::min(window_rows, rows);

  std::vector<uint32_t> tail;
  tail.reserve(take);
  for (size_t r = rows - take; r < rows; ++r) {
    tail.push_back(static_cast<uint32_t>(r));
  }
  data::Selection tail_sel(std::move(tail));

  // Restrict the full-dataset groups to the tail. A caller-supplied
  // GroupInfo is restricted in place (Restrict reuses the parent's dense
  // codes — no re-derivation, no copy of the parent); otherwise resolve
  // from the request spec first.
  util::StatusOr<data::GroupInfo> windowed = [&] {
    if (request.groups != nullptr) return request.groups->Restrict(tail_sel);
    util::StatusOr<data::GroupInfo> resolved =
        core::ResolveRequestGroups(db, request);
    if (!resolved.ok()) return resolved;
    return resolved->Restrict(tail_sel);
  }();
  if (!windowed.ok()) return windowed.status();

  core::MineRequest tail_request;
  tail_request.groups = &*windowed;
  tail_request.run_control = request.run_control;
  return core::Miner(config).Mine(db, tail_request);
}

WindowMiner::WindowMiner(StreamConfig config,
                         std::vector<data::Attribute> attributes,
                         std::string group_attr)
    : config_(config),
      attributes_(std::move(attributes)),
      group_attr_(std::move(group_attr)) {}

bool WindowMiner::SameSignature(const PatternSig& a, const PatternSig& b,
                                double jaccard) {
  if (a.items.size() != b.items.size()) return false;
  for (size_t i = 0; i < a.items.size(); ++i) {
    const auto& x = a.items[i];
    const auto& y = b.items[i];
    if (x.attr != y.attr || x.categorical != y.categorical) return false;
    if (x.categorical) {
      if (x.value != y.value) return false;
    } else if (IntervalJaccard(x.lo, x.hi, y.lo, y.hi) < jaccard) {
      return false;
    }
  }
  return true;
}

util::StatusOr<std::optional<PatternDelta>> WindowMiner::Append(
    std::vector<StreamValue> row) {
  if (!config_validated_) {
    SDADCS_RETURN_IF_ERROR(config_.miner.Validate());
    config_validated_ = true;
  }
  if (row.size() != attributes_.size()) {
    return util::Status::InvalidArgument(
        "row width does not match the declared attributes");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    bool continuous =
        attributes_[i].type == data::AttributeType::kContinuous;
    if (row[i].kind == StreamValue::Kind::kNumber && !continuous) {
      return util::Status::InvalidArgument(
          "numeric value streamed into categorical attribute '" +
          attributes_[i].name + "'");
    }
    if (row[i].kind == StreamValue::Kind::kCategory && continuous) {
      return util::Status::InvalidArgument(
          "categorical value streamed into continuous attribute '" +
          attributes_[i].name + "'");
    }
  }
  window_.push_back(std::move(row));
  if (window_.size() > config_.window_rows) window_.pop_front();
  ++rows_seen_;
  ++since_last_pass_;

  if (window_.size() < config_.min_rows ||
      since_last_pass_ < config_.stride) {
    return std::optional<PatternDelta>();
  }
  since_last_pass_ = 0;
  return MinePass();
}

std::optional<PatternDelta> WindowMiner::MinePass() {
  // Materialize the window.
  data::DatasetBuilder builder;
  std::vector<int> attr_index(attributes_.size());
  for (size_t i = 0; i < attributes_.size(); ++i) {
    attr_index[i] =
        attributes_[i].type == data::AttributeType::kContinuous
            ? builder.AddContinuous(attributes_[i].name)
            : builder.AddCategorical(attributes_[i].name);
  }
  for (const std::vector<StreamValue>& row : window_) {
    for (size_t i = 0; i < row.size(); ++i) {
      switch (row[i].kind) {
        case StreamValue::Kind::kNumber:
          builder.AppendContinuous(attr_index[i], row[i].number);
          break;
        case StreamValue::Kind::kCategory:
          builder.AppendCategorical(attr_index[i], row[i].category);
          break;
        case StreamValue::Kind::kMissing:
          builder.AppendMissing(attr_index[i]);
          break;
      }
    }
  }
  auto db = std::move(builder).Build();
  if (!db.ok()) return std::nullopt;

  auto attr = db->schema().IndexOf(group_attr_);
  if (!attr.ok()) return std::nullopt;
  auto gi = data::GroupInfo::Create(*db, *attr);
  if (!gi.ok()) return std::nullopt;  // e.g. one group only: skip pass

  core::Miner miner(config_.miner);
  core::MineRequest request;
  request.groups = &*gi;
  request.run_control = config_.run_control;
  auto result = miner.Mine(*db, request);
  if (!result.ok()) return std::nullopt;
  const bool partial = result->completion != core::Completion::kComplete;

  // Build signatures for the new pattern set.
  std::vector<PatternSig> current;
  current.reserve(result->contrasts.size());
  for (const core::ContrastPattern& p : result->contrasts) {
    PatternSig sig;
    sig.rendered = p.itemset.ToString(*db);
    for (const core::Item& it : p.itemset.items()) {
      PatternSig::ItemSig item;
      item.attr = db->schema().attribute(it.attr).name;
      item.categorical = it.kind == core::Item::Kind::kCategorical;
      if (item.categorical) {
        item.value = db->categorical(it.attr).ValueOf(it.code);
      } else {
        item.lo = it.lo;
        item.hi = it.hi;
      }
      sig.items.push_back(std::move(item));
    }
    current.push_back(std::move(sig));
  }

  PatternDelta delta;
  delta.rows_seen = rows_seen_;
  delta.completion = result->completion;
  std::vector<bool> prev_matched(previous_.size(), false);
  for (const PatternSig& sig : current) {
    bool matched = false;
    for (size_t i = 0; i < previous_.size(); ++i) {
      if (prev_matched[i]) continue;
      if (SameSignature(sig, previous_[i], config_.interval_jaccard)) {
        prev_matched[i] = true;
        matched = true;
        break;
      }
    }
    (matched ? delta.persisted : delta.appeared).push_back(sig.rendered);
  }
  // A partial pass cannot tell "disappeared" from "the miner never got
  // there", so it neither reports disappearances nor advances the
  // baseline the next pass diffs against.
  if (partial) return delta;
  for (size_t i = 0; i < previous_.size(); ++i) {
    if (!prev_matched[i]) {
      delta.disappeared.push_back(previous_[i].rendered);
    }
  }

  previous_ = std::move(current);
  current_rendered_.clear();
  for (const PatternSig& sig : previous_) {
    current_rendered_.push_back(sig.rendered);
  }
  return delta;
}

}  // namespace sdadcs::stream
