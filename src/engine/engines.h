#ifndef SDADCS_ENGINE_ENGINES_H_
#define SDADCS_ENGINE_ENGINES_H_

#include <memory>
#include <string>

#include "core/config.h"
#include "core/miner.h"
#include "discretize/discretizer.h"
#include "engine/engine.h"
#include "parallel/parallel_miner.h"
#include "subgroup/beam.h"

namespace sdadcs::engine {

/// The concrete Engine adapters the registry constructs. Each wraps one
/// miner behind the uniform Engine interface; all of them run the shared
/// MiningSession prologue/epilogue inside their miner's Mine().

/// "serial", "sharded" and "sharded:<n>" — the SDAD-CS lattice search
/// (core::Miner). The entries differ only in name and shard count: a
/// sharded mine fans its counting scans across row shards and is
/// byte-identical to serial for every count.
class LatticeEngine : public Engine {
 public:
  LatticeEngine(std::string name, core::MinerConfig config,
                size_t num_shards)
      : name_(std::move(name)), miner_(std::move(config), num_shards) {}

  std::string Name() const override { return name_; }
  std::string Describe() const override;
  util::StatusOr<core::MiningResult> Mine(
      const data::Dataset& db,
      const core::MineRequest& request) const override;

 private:
  std::string name_;
  core::Miner miner_;
};

/// "parallel" — level-parallel SDAD-CS (Section 6).
class ParallelEngine : public Engine {
 public:
  ParallelEngine(core::MinerConfig config, size_t num_threads)
      : miner_(std::move(config), num_threads) {}

  std::string Name() const override { return "parallel"; }
  std::string Describe() const override;
  util::StatusOr<core::MiningResult> Mine(
      const data::Dataset& db,
      const core::MineRequest& request) const override;

 private:
  parallel::ParallelMiner miner_;
};

/// "beam" — beam-search subgroup discovery (the paper's Cortana
/// baseline), rendered as contrast patterns. The shared knobs of the
/// MinerConfig (max_depth, top_k, min_coverage, measure) carry over;
/// beam-specific knobs keep their BeamConfig defaults.
class BeamEngine : public Engine {
 public:
  explicit BeamEngine(const core::MinerConfig& config);

  std::string Name() const override { return "beam"; }
  std::string Describe() const override;
  util::StatusOr<core::MiningResult> Mine(
      const data::Dataset& db,
      const core::MineRequest& request) const override;

 private:
  // Kept so Mine() can reject an invalid shared config up front — the
  // beam mapping only carries a subset of the fields, and the dropped
  // ones must not silently escape validation.
  core::MinerConfig config_;
  subgroup::BeamSubgroupDiscovery discovery_;
};

/// "binned:<method>" — pre-binned STUCCO over one global discretizer
/// (the paper's MVD / Entropy baselines and friends).
class BinnedEngine : public Engine {
 public:
  BinnedEngine(core::MinerConfig config, std::string name,
               std::string description,
               std::unique_ptr<discretize::Discretizer> disc)
      : config_(std::move(config)),
        name_(std::move(name)),
        description_(std::move(description)),
        disc_(std::move(disc)) {}

  std::string Name() const override { return name_; }
  std::string Describe() const override { return description_; }
  util::StatusOr<core::MiningResult> Mine(
      const data::Dataset& db,
      const core::MineRequest& request) const override;

 private:
  core::MinerConfig config_;
  std::string name_;
  std::string description_;
  std::unique_ptr<discretize::Discretizer> disc_;
};

/// "window" — serial SDAD-CS restricted to the most recent rows.
class WindowEngine : public Engine {
 public:
  WindowEngine(core::MinerConfig config, size_t window_rows)
      : config_(std::move(config)), window_rows_(window_rows) {}

  std::string Name() const override { return "window"; }
  std::string Describe() const override;
  util::StatusOr<core::MiningResult> Mine(
      const data::Dataset& db,
      const core::MineRequest& request) const override;

 private:
  core::MinerConfig config_;
  size_t window_rows_;
};

}  // namespace sdadcs::engine

#endif  // SDADCS_ENGINE_ENGINES_H_
