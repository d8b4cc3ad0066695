#include "engine/registry.h"

#include "discretize/binned_miner.h"
#include "discretize/equal_bins.h"
#include "discretize/fayyad.h"
#include "discretize/mvd.h"
#include "discretize/srikant.h"
#include "stream/window_miner.h"
#include "subgroup/beam.h"

namespace sdadcs::engine {

namespace {

using core::EngineKind;

// Adding an engine: append a core::EngineKind, add its row here and its
// case to Mine().
constexpr EngineRow kEngines[] = {
    {EngineKind::kSerial, "serial", "single-threaded SDAD-CS lattice search"},
    {EngineKind::kParallel, "parallel",
     "SDAD-CS on a thread team (Section 6): each level's attribute "
     "combinations mined in parallel (byte-identical to serial)"},
    {EngineKind::kBeam, "beam",
     "beam-search subgroup discovery (Cortana-style baseline)"},
    {EngineKind::kBinnedFayyad, "binned:fayyad",
     "pre-binned STUCCO over Fayyad-MDL entropy bins"},
    {EngineKind::kBinnedMvd, "binned:mvd", "pre-binned STUCCO over MVD bins"},
    {EngineKind::kBinnedSrikant, "binned:srikant",
     "pre-binned STUCCO over Srikant partial-completeness bins"},
    {EngineKind::kBinnedEqualWidth, "binned:equal_width",
     "pre-binned STUCCO over equal-width bins"},
    {EngineKind::kBinnedEqualFreq, "binned:equal_freq",
     "pre-binned STUCCO over equal-frequency bins"},
    {EngineKind::kWindow, "window",
     "serial SDAD-CS over the most recent rows only"},
    {EngineKind::kSharded, "sharded",
     "the parallel engine under its width's name: sharded:<n> runs a "
     "team of n (byte-identical to serial)"},
};

constexpr char kAutoName[] = "auto";
constexpr char kShardedPrefix[] = "sharded:";

// The positive count of "sharded:<n>", or 0 when `count` is not a plain
// decimal of at most six digits.
size_t ParseShardCount(const std::string& count) {
  if (count.empty() || count.size() > 6) return 0;
  size_t value = 0;
  for (char c : count) {
    if (c < '0' || c > '9') return 0;
    value = value * 10 + static_cast<size_t>(c - '0');
  }
  return value;
}

}  // namespace

std::span<const EngineRow> Engines() { return kEngines; }

util::StatusOr<EngineSpec> ParseEngine(const std::string& name) {
  if (name == kAutoName) return EngineSpec{EngineKind::kAuto, 0};
  for (const EngineRow& row : kEngines) {
    if (name == row.name) return EngineSpec{row.kind, 0};
  }
  constexpr size_t kPrefixLen = sizeof(kShardedPrefix) - 1;
  if (name.compare(0, kPrefixLen, kShardedPrefix) == 0) {
    const size_t count = ParseShardCount(name.substr(kPrefixLen));
    if (count == 0) {
      return util::Status::InvalidArgument(
          "engine '" + name +
          "': sharded:<n> requires a positive shard count");
    }
    return EngineSpec{EngineKind::kSharded, count};
  }
  std::string known;
  for (const EngineRow& row : kEngines) {
    known += row.name;
    known += ", ";
  }
  return util::Status::InvalidArgument(
      "unknown engine '" + name + "'; expected one of: " + known +
      "sharded:<n> (the servers also resolve auto)");
}

const char* EngineName(EngineKind kind) {
  if (kind == EngineKind::kAuto) return kAutoName;
  for (const EngineRow& row : kEngines) {
    if (row.kind == kind) return row.name;
  }
  return "unknown";
}

util::StatusOr<core::MiningResult> Mine(const EngineSpec& spec,
                                        const core::MinerConfig& config,
                                        const EngineOptions& options,
                                        const data::Dataset& db,
                                        const core::MineRequest& request) {
  switch (spec.kind) {
    case EngineKind::kAuto:
      return util::Status::InvalidArgument(
          "engine 'auto' must be resolved before mining; the servers "
          "resolve it from the dataset's row count");
    case EngineKind::kSerial:
      return core::Miner(config).Mine(db, request);
    case EngineKind::kParallel:
    case EngineKind::kSharded:
      return core::Miner(config, spec.shard_count != 0 ? spec.shard_count
                                                       : options.shard_count)
          .Mine(db, request);
    case EngineKind::kBeam: {
      // The beam mapping carries only the shared knobs; validating the
      // whole config first keeps the dropped ones from escaping checks.
      util::Status valid = config.Validate();
      if (!valid.ok()) return valid;
      subgroup::BeamConfig beam;
      beam.max_depth = config.max_depth;
      beam.top_k = config.top_k;
      beam.min_coverage = config.min_coverage;
      beam.measure = config.measure;
      return subgroup::BeamSubgroupDiscovery(beam).Mine(db, request);
    }
    case EngineKind::kWindow:
      return stream::MineTailWindow(db, request, config, options.window_rows);
    case EngineKind::kBinnedFayyad:
      return discretize::MineWithDiscretizer(
          db, request, discretize::FayyadMdlDiscretizer(), config);
    case EngineKind::kBinnedMvd:
      return discretize::MineWithDiscretizer(
          db, request, discretize::MvdDiscretizer(), config);
    case EngineKind::kBinnedSrikant:
      return discretize::MineWithDiscretizer(
          db, request, discretize::SrikantDiscretizer(), config);
    case EngineKind::kBinnedEqualWidth:
    case EngineKind::kBinnedEqualFreq:
      // The discretizers CHECK their bin count; a caller's bad option is
      // an error, not an abort.
      if (options.equal_bins < 1) {
        return util::Status::InvalidArgument(
            "equal_bins must be >= 1, got " +
            std::to_string(options.equal_bins));
      }
      if (spec.kind == EngineKind::kBinnedEqualWidth) {
        return discretize::MineWithDiscretizer(
            db, request, discretize::EqualWidthDiscretizer(options.equal_bins),
            config);
      }
      return discretize::MineWithDiscretizer(
          db, request,
          discretize::EqualFrequencyDiscretizer(options.equal_bins), config);
  }
  return util::Status::InvalidArgument(
      "unknown engine kind " + std::to_string(static_cast<int>(spec.kind)));
}

}  // namespace sdadcs::engine
