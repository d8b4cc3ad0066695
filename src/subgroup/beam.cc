#include "subgroup/beam.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/config.h"
#include "core/support.h"
#include "discretize/equal_bins.h"
#include "engine/session.h"
#include "util/timer.h"

namespace sdadcs::subgroup {

namespace {

using core::Item;
using core::Itemset;
using core::RunState;

// A beam member: description + its cover. Group counts come from the
// fused filter+count scan that builds the cover.
struct Candidate {
  Itemset description;
  data::Selection cover;
  core::GroupCounts counts;
  double quality = 0.0;
};

bool QualityGreater(const Candidate& a, const Candidate& b) {
  if (a.quality != b.quality) return a.quality > b.quality;
  return a.description.Key() < b.description.Key();
}

// Interval refinements of `attr` over the rows of `cover`: every
// (c_i, c_j] over the equal-frequency boundaries, including the open
// ends, except the trivial full range.
std::vector<Item> IntervalRefinements(const data::Dataset& db,
                                      const data::Selection& cover, int attr,
                                      int num_bins) {
  const data::ContinuousColumn& col = db.continuous(attr);
  std::vector<double> values;
  values.reserve(cover.size());
  for (uint32_t r : cover) {
    double v = col.value(r);
    if (!std::isnan(v)) values.push_back(v);
  }
  std::vector<Item> out;
  if (values.size() < 4) return out;
  std::sort(values.begin(), values.end());
  std::vector<double> cuts = discretize::EqualFrequencyCuts(values, num_bins);
  if (cuts.empty()) return out;

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> bounds;
  bounds.push_back(-kInf);
  for (double c : cuts) bounds.push_back(c);
  bounds.push_back(kInf);
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    for (size_t j = i + 1; j < bounds.size(); ++j) {
      if (i == 0 && j == bounds.size() - 1) continue;  // full range
      out.push_back(Item::Interval(attr, bounds[i], bounds[j]));
    }
  }
  return out;
}

}  // namespace

util::Status BeamConfig::Validate() const {
  // The knobs shared with the lattice miner go through the one shared
  // validator so the error messages match across engines.
  core::MinerConfig shared;
  shared.max_depth = max_depth;
  shared.top_k = top_k;
  shared.min_coverage = min_coverage;
  SDADCS_RETURN_IF_ERROR(shared.Validate());
  if (beam_width < 1) {
    return util::Status::InvalidArgument("beam_width must be >= 1, got " +
                                         std::to_string(beam_width));
  }
  if (num_bins < 2) {
    return util::Status::InvalidArgument("num_bins must be >= 2, got " +
                                         std::to_string(num_bins));
  }
  if (max_coverage < 0) {
    return util::Status::InvalidArgument("max_coverage must be >= 0, got " +
                                         std::to_string(max_coverage));
  }
  return util::Status::OK();
}

core::MinerConfig BeamConfig::SharedMinerConfig() const {
  core::MinerConfig shared;
  shared.max_depth = max_depth;
  shared.top_k = top_k;
  shared.min_coverage = min_coverage;
  shared.measure = measure;
  return shared;
}

std::vector<Subgroup> BeamSubgroupDiscovery::Discover(
    const data::Dataset& db, const data::GroupInfo& gi, int target_group,
    BeamStats* stats, const util::RunControl* control) const {
  util::WallTimer timer;
  RunState run = control != nullptr ? RunState(*control) : RunState();
  std::vector<double> group_sizes = core::GroupSizes(gi);

  std::vector<Candidate> beam;
  beam.push_back({Itemset(), gi.base_selection(), {}, 0.0});

  // Best subgroups across all levels, deduplicated by description.
  std::vector<Candidate> best;
  std::unordered_set<Itemset> seen;

  for (int depth = 1; depth <= config_.max_depth; ++depth) {
    std::vector<Candidate> level;
    for (size_t mi = 0; mi < beam.size(); ++mi) {
      if (run.stopped()) {
        if (stats != nullptr) {
          stats->abandoned_descriptions += beam.size() - mi;
        }
        break;
      }
      const Candidate& member = beam[mi];
      for (size_t a = 0; a < db.num_attributes(); ++a) {
        if (run.stopped()) break;
        int attr = static_cast<int>(a);
        if (attr == gi.group_attr()) continue;
        if (member.description.ConstrainsAttribute(attr)) continue;

        std::vector<Item> refinements;
        if (db.is_categorical(attr)) {
          const data::CategoricalColumn& col = db.categorical(attr);
          for (int32_t code = 0; code < col.cardinality(); ++code) {
            refinements.push_back(Item::Categorical(attr, code));
          }
        } else {
          refinements = IntervalRefinements(db, member.cover, attr,
                                            config_.num_bins);
        }

        for (const Item& item : refinements) {
          // Each refinement scans the member's cover once.
          if (run.CheckPoint(RunState::NodeWeight(member.cover.size()))) {
            break;
          }
          Candidate cand;
          cand.description = member.description.WithItem(item);
          if (seen.count(cand.description) > 0) continue;
          cand.cover = core::FilterCountGroups(
              gi, member.cover,
              [&](uint32_t r) { return item.Matches(db, r); }, &cand.counts);
          if (static_cast<int>(cand.cover.size()) < config_.min_coverage) {
            continue;
          }
          if (config_.max_coverage > 0 &&
              static_cast<int>(cand.cover.size()) > config_.max_coverage) {
            continue;
          }
          if (stats != nullptr) ++stats->descriptions_evaluated;
          cand.quality =
              core::WRAcc(cand.counts.counts, group_sizes, target_group);
          seen.insert(cand.description);
          level.push_back(std::move(cand));
        }
      }
    }
    // Candidates scored before a stop still enter the result: the run
    // drains with the best found so far.
    if (level.empty()) break;
    std::sort(level.begin(), level.end(), QualityGreater);
    if (static_cast<int>(level.size()) > config_.beam_width) {
      level.resize(config_.beam_width);
    }
    for (const Candidate& c : level) {
      if (c.quality >= config_.min_quality) best.push_back(c);
    }
    beam = std::move(level);
    if (run.stopped()) break;
  }

  std::sort(best.begin(), best.end(), QualityGreater);
  if (static_cast<int>(best.size()) > config_.top_k) {
    best.resize(config_.top_k);
  }

  std::vector<Subgroup> out;
  out.reserve(best.size());
  for (Candidate& c : best) {
    Subgroup sg;
    sg.description = std::move(c.description);
    sg.quality = c.quality;
    sg.counts = std::move(c.counts.counts);
    out.push_back(std::move(sg));
  }
  if (stats != nullptr) {
    stats->elapsed_seconds = timer.Seconds();
    if (stats->completion == core::Completion::kComplete) {
      stats->completion = run.completion();
    }
  }
  return out;
}

std::vector<core::ContrastPattern> BeamSubgroupDiscovery::DiscoverContrasts(
    const data::Dataset& db, const data::GroupInfo& gi,
    core::MeasureKind measure, BeamStats* stats,
    const util::RunControl* control) const {
  RunState run = control != nullptr ? RunState(*control) : RunState();
  std::unordered_map<Itemset, core::ContrastPattern> pooled;
  for (int g = 0; g < gi.num_groups(); ++g) {
    if (run.CheckNow()) break;
    for (Subgroup& sg : Discover(db, gi, g, stats, control)) {
      auto [it, inserted] = pooled.try_emplace(sg.description);
      if (!inserted) continue;
      core::ContrastPattern& p = it->second;
      p.itemset = std::move(sg.description);
      p.counts = std::move(sg.counts);
      p.ComputeStats(gi, measure);
    }
  }
  if (stats != nullptr && stats->completion == core::Completion::kComplete) {
    stats->completion = run.completion();
  }
  std::vector<core::ContrastPattern> out;
  out.reserve(pooled.size());
  for (auto& [key, p] : pooled) out.push_back(std::move(p));
  core::SortByMeasureDesc(&out);
  return out;
}

util::StatusOr<core::MiningResult> BeamSubgroupDiscovery::Mine(
    const data::Dataset& db, const core::MineRequest& request) const {
  // Beam-only knobs are range-checked here; the shared prologue/epilogue
  // (group resolution, sort, meaningfulness post-filter, completion) is
  // the engine session over the shared-knob view of this config.
  SDADCS_RETURN_IF_ERROR(config_.Validate());
  core::MinerConfig shared = config_.SharedMinerConfig();
  util::StatusOr<engine::MiningSession> session =
      engine::MiningSession::Begin(db, shared, request);
  if (!session.ok()) return session.status();

  BeamStats stats;
  std::vector<core::ContrastPattern> contrasts = DiscoverContrasts(
      db, session->groups(), config_.measure, &stats, &session->control());
  core::MiningCounters counters;
  counters.partitions_evaluated = stats.descriptions_evaluated;
  counters.abandoned_candidates = stats.abandoned_descriptions;
  return session->Finalize(std::move(contrasts), counters, stats.completion);
}

}  // namespace sdadcs::subgroup
