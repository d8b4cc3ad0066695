#include "engine/engines.h"

#include "discretize/binned_miner.h"
#include "stream/window_miner.h"
#include "util/string_util.h"

namespace sdadcs::engine {

std::string LatticeEngine::Describe() const {
  // A one-shard mine runs on the calling thread alone, whatever the
  // entry is called.
  if (miner_.num_shards() == 1) {
    return "single-threaded SDAD-CS lattice search (the paper's reference "
           "algorithm)";
  }
  return util::StrFormat(
      "shard-merge SDAD-CS: serial decision order, counting fanned "
      "across %zu row shards (byte-identical to serial)",
      miner_.num_shards());
}

util::StatusOr<core::MiningResult> LatticeEngine::Mine(
    const data::Dataset& db, const core::MineRequest& request) const {
  return miner_.Mine(db, request);
}

std::string ParallelEngine::Describe() const {
  return util::StrFormat(
      "level-parallel SDAD-CS (Section 6), %zu worker threads",
      miner_.num_threads());
}

util::StatusOr<core::MiningResult> ParallelEngine::Mine(
    const data::Dataset& db, const core::MineRequest& request) const {
  return miner_.Mine(db, request);
}

BeamEngine::BeamEngine(const core::MinerConfig& config)
    : config_(config),
      discovery_([&config] {
        subgroup::BeamConfig bc;
        bc.max_depth = config.max_depth;
        bc.top_k = config.top_k;
        bc.min_coverage = config.min_coverage;
        bc.measure = config.measure;
        return bc;
      }()) {}

std::string BeamEngine::Describe() const {
  return "beam-search subgroup discovery (Cortana-style baseline) pooled "
         "into contrast patterns";
}

util::StatusOr<core::MiningResult> BeamEngine::Mine(
    const data::Dataset& db, const core::MineRequest& request) const {
  util::Status valid = config_.Validate();
  if (!valid.ok()) return valid;
  return discovery_.Mine(db, request);
}

util::StatusOr<core::MiningResult> BinnedEngine::Mine(
    const data::Dataset& db, const core::MineRequest& request) const {
  return discretize::MineWithDiscretizer(db, request, *disc_, config_);
}

std::string WindowEngine::Describe() const {
  if (window_rows_ == 0) {
    return "serial SDAD-CS over the full dataset (window_rows = 0)";
  }
  return util::StrFormat(
      "serial SDAD-CS over the most recent %zu rows only", window_rows_);
}

util::StatusOr<core::MiningResult> WindowEngine::Mine(
    const data::Dataset& db, const core::MineRequest& request) const {
  return stream::MineTailWindow(db, request, config_, window_rows_);
}

}  // namespace sdadcs::engine
