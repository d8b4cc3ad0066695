#ifndef SDADCS_ENGINE_REGISTRY_H_
#define SDADCS_ENGINE_REGISTRY_H_

#include <span>
#include <string>

#include "core/config.h"
#include "core/miner.h"
#include "core/request_key.h"
#include "data/dataset.h"
#include "util/status.h"

namespace sdadcs::engine {

/// Engine knobs that are deployment decisions rather than mining
/// semantics — they never enter the request fingerprint.
struct EngineOptions {
  /// Rows of the tail window the "window" engine mines (0 = the whole
  /// dataset).
  size_t window_rows = 0;
  /// Bin count of the binned:equal_width / binned:equal_freq engines
  /// (at least 1).
  int equal_bins = 10;
  /// Width of the parallel and sharded engines when the spec carries no
  /// "sharded:<n>" count (0 = hardware concurrency). Deployment knob
  /// only: their results are byte-identical to serial for every count,
  /// so this never enters the request fingerprint.
  size_t shard_count = 0;
};

/// One servable engine: its request-key kind, its stable name and the
/// one-line description the listings print.
struct EngineRow {
  core::EngineKind kind = core::EngineKind::kAuto;
  const char* name = "";
  const char* description = "";
};

/// The one engine table (engine/registry.cc), in listing order: one row
/// per core::EngineKind except kAuto, which the serving layer resolves
/// by row count. The `{"op":"engines"}` reply, `sdadcs_tool --engine
/// list`, ParseEngine, EngineName and the unknown-name error all read
/// it.
std::span<const EngineRow> Engines();

/// A parsed engine name: the kind plus the shard count "sharded:<n>"
/// carries. Like EngineOptions::shard_count the count is an execution
/// knob, not request identity (results are byte-identical for every n),
/// so it rides next to the kind and never reaches the RequestKey.
struct EngineSpec {
  core::EngineKind kind = core::EngineKind::kAuto;
  /// Shard count of "sharded:<n>"; 0 = none given (Mine falls back to
  /// EngineOptions::shard_count).
  size_t shard_count = 0;
};

/// The only name parser: every table name, "auto", and "sharded:<n>"
/// with n a positive integer. Anything else is an InvalidArgument naming
/// the offending value; an unknown name lists every accepted one.
util::StatusOr<EngineSpec> ParseEngine(const std::string& name);

/// The table name of `kind` ("auto" for kAuto).
const char* EngineName(core::EngineKind kind);

/// Runs `spec`'s miner over `db`. The parallel and sharded rows run
/// core::Miner on the process's team; an explicit "sharded:<n>" count beats
/// `options.shard_count`. Same contract as core::Miner::Mine: an expired
/// deadline, cancellation or exhausted budget drains into a sorted
/// best-so-far result with the matching completion, and errors are
/// reserved for invalid input — an invalid config or request, kAuto
/// (resolve it first), or an equal-bin engine with equal_bins < 1.
util::StatusOr<core::MiningResult> Mine(const EngineSpec& spec,
                                        const core::MinerConfig& config,
                                        const EngineOptions& options,
                                        const data::Dataset& db,
                                        const core::MineRequest& request);

}  // namespace sdadcs::engine

#endif  // SDADCS_ENGINE_REGISTRY_H_
