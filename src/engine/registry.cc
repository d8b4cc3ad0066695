#include "engine/registry.h"

#include <utility>

#include "discretize/equal_bins.h"
#include "discretize/fayyad.h"
#include "discretize/mvd.h"
#include "discretize/srikant.h"
#include "engine/engines.h"

namespace sdadcs::engine {

namespace {

using core::EngineKind;
using core::MinerConfig;

// One registration per binned discretization method.
EngineRegistry::Entry BinnedEntry(
    std::string name, EngineKind kind, std::string description,
    std::function<std::unique_ptr<discretize::Discretizer>(
        const EngineOptions&)>
        make_disc) {
  EngineRegistry::Entry entry;
  entry.name = name;
  entry.kind = kind;
  entry.description = description;
  entry.factory = [name, description, make_disc](
                      const MinerConfig& config,
                      const EngineOptions& options) {
    return std::make_unique<BinnedEngine>(config, name, description,
                                          make_disc(options));
  };
  return entry;
}

}  // namespace

const EngineRegistry& EngineRegistry::Global() {
  static const EngineRegistry* registry = new EngineRegistry();
  return *registry;
}

EngineRegistry::EngineRegistry() {
  Register({"serial", EngineKind::kSerial,
            "single-threaded SDAD-CS lattice search",
            [](const MinerConfig& config, const EngineOptions&) {
              return std::make_unique<LatticeEngine>("serial", config, 1);
            }});
  Register({"parallel", EngineKind::kParallel,
            "level-parallel SDAD-CS (Section 6)",
            [](const MinerConfig& config, const EngineOptions& options) {
              return std::make_unique<ParallelEngine>(
                  config, options.parallel_threads);
            }});
  Register({"beam", EngineKind::kBeam,
            "beam-search subgroup discovery (Cortana-style baseline)",
            [](const MinerConfig& config, const EngineOptions&) {
              return std::make_unique<BeamEngine>(config);
            }});
  Register(BinnedEntry(
      "binned:fayyad", EngineKind::kBinnedFayyad,
      "pre-binned STUCCO over Fayyad-MDL entropy bins",
      [](const EngineOptions&) {
        return std::make_unique<discretize::FayyadMdlDiscretizer>();
      }));
  Register(BinnedEntry("binned:mvd", EngineKind::kBinnedMvd,
                       "pre-binned STUCCO over MVD bins",
                       [](const EngineOptions&) {
                         return std::make_unique<discretize::MvdDiscretizer>();
                       }));
  Register(BinnedEntry(
      "binned:srikant", EngineKind::kBinnedSrikant,
      "pre-binned STUCCO over Srikant partial-completeness bins",
      [](const EngineOptions&) {
        return std::make_unique<discretize::SrikantDiscretizer>();
      }));
  Register(BinnedEntry(
      "binned:equal_width", EngineKind::kBinnedEqualWidth,
      "pre-binned STUCCO over equal-width bins",
      [](const EngineOptions& options) {
        return std::make_unique<discretize::EqualWidthDiscretizer>(
            options.equal_bins);
      }));
  Register(BinnedEntry(
      "binned:equal_freq", EngineKind::kBinnedEqualFreq,
      "pre-binned STUCCO over equal-frequency bins",
      [](const EngineOptions& options) {
        return std::make_unique<discretize::EqualFrequencyDiscretizer>(
            options.equal_bins);
      }));
  Register({"window", EngineKind::kWindow,
            "serial SDAD-CS over the most recent rows only",
            [](const MinerConfig& config, const EngineOptions& options) {
              return std::make_unique<WindowEngine>(config,
                                                    options.window_rows);
            }});
  Register({"sharded", EngineKind::kSharded,
            "shard-merge SDAD-CS: serial decision order, row-sharded "
            "counting (byte-identical to serial)",
            [](const MinerConfig& config, const EngineOptions& options) {
              return std::make_unique<LatticeEngine>("sharded", config,
                                                     options.shard_count);
            }});
}

void EngineRegistry::Register(Entry entry) {
  entries_.push_back(std::move(entry));
}

std::vector<std::string> EngineRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& e : entries_) names.push_back(e.name);
  return names;
}

std::string EngineRegistry::NamesJoined() const {
  std::string joined;
  for (const Entry& e : entries_) {
    if (!joined.empty()) joined += ", ";
    joined += e.name;
  }
  return joined;
}

bool EngineRegistry::Has(const std::string& name) const {
  if (Find(name) != nullptr) return true;
  // The parameterized "sharded:<n>" form resolves without an entry of
  // its own (shard_count > 0 excludes plain kind names and "auto").
  util::StatusOr<core::EngineSpec> spec = core::EngineSpecFromString(name);
  return spec.ok() && spec->shard_count > 0;
}

const EngineRegistry::Entry* EngineRegistry::Find(
    const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

util::StatusOr<std::unique_ptr<Engine>> EngineRegistry::Create(
    const std::string& name, const core::MinerConfig& config,
    const EngineOptions& options) const {
  const Entry* entry = Find(name);
  if (entry == nullptr) {
    // "sharded:<n>" parameterizes the sharded entry: the count is a
    // deployment knob, so it rides in an options copy, never the name
    // the request key sees.
    util::StatusOr<core::EngineSpec> spec =
        core::EngineSpecFromString(name);
    if (spec.ok() && spec->shard_count > 0) {
      EngineOptions opts = options;
      opts.shard_count = spec->shard_count;
      return Find("sharded")->factory(config, opts);
    }
    return util::Status::InvalidArgument(
        "unknown engine '" + name + "'; expected one of: " + NamesJoined() +
        ", sharded:<n>");
  }
  return entry->factory(config, options);
}

util::StatusOr<std::unique_ptr<Engine>> EngineRegistry::Create(
    core::EngineKind kind, const core::MinerConfig& config,
    const EngineOptions& options) const {
  if (kind == EngineKind::kAuto) {
    return util::Status::InvalidArgument(
        "engine kind 'auto' must be resolved before Create()");
  }
  for (const Entry& e : entries_) {
    if (e.kind == kind) return e.factory(config, options);
  }
  return util::Status::InvalidArgument(
      std::string("no engine registered for kind '") +
      core::EngineKindToString(kind) + "'");
}

}  // namespace sdadcs::engine
