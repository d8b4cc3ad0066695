#ifndef SDADCS_SERVE_SERVER_H_
#define SDADCS_SERVE_SERVER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/miner.h"
#include "core/request_key.h"
#include "serve/admission.h"
#include "serve/dataset_registry.h"
#include "serve/result_cache.h"
#include "util/run_control.h"
#include "util/status.h"

namespace sdadcs::util {
class Flags;
}  // namespace sdadcs::util

namespace sdadcs::serve {

/// Rows from which kAuto resolves to the parallel engine.
inline constexpr size_t kAutoParallelRows = 100000;

/// Resolves kAuto for a dataset of `rows` rows: the parallel engine from
/// kAutoParallelRows rows on, the serial one below. Both give the same
/// bytes, so the rule only decides whether a mine spends a thread team.
/// Any other kind comes back as is.
core::EngineKind ResolveEngine(core::EngineKind requested, size_t rows);

/// Knobs of the in-process serving layer. Defaults suit tests and the
/// CLI; a deployment tunes them from flags.
struct ServerOptions {
  /// DatasetRegistry byte budget (0 = unlimited).
  size_t dataset_memory_budget = 0;
  /// ResultCache entry capacity (0 disables storage; single-flight
  /// coalescing still applies).
  size_t result_cache_capacity = 256;
  /// Concurrent mining runs and the bounded admission queue behind them.
  int max_concurrent_runs = 2;
  int max_queue = 8;
  /// Server-wide caps stamped onto requests that arrive without their
  /// own deadline / node budget (0 = none). A request's own tighter
  /// limits always win; these only bound the unlimited.
  int64_t default_deadline_ms = 0;
  uint64_t default_node_budget = 0;
  /// Tail rows the "window" engine mines (0 = the whole dataset).
  size_t window_rows = 0;
  /// Bin count of the binned:equal_width / binned:equal_freq engines
  /// (at least 1).
  int equal_bins = 10;
  /// Width of the parallel and sharded engines when the request does not
  /// carry its own "sharded:<n>" count (0 = hardware concurrency).
  size_t shard_count = 0;
  /// Chunked data layer: chunk geometry override for every loaded
  /// dataset (0 = data::kDefaultChunkRows) and the paged-backend chunk
  /// byte cap (0 = datasets stay fully resident). With a nonzero cap,
  /// loads are spilled to a columnar temp file and served mmap-backed;
  /// results are byte-identical either way, so neither knob is keyed.
  size_t chunk_rows = 0;
  size_t max_resident_bytes = 0;
  // window_rows / equal_bins / shard_count are deployment-wide
  // constants, not per-request knobs, so they stay out of the request
  // key: within one server process a key can never alias two different
  // effective configurations. (shard_count additionally never changes
  // results — the parallel engine is byte-identical to serial.)
};

/// The flags both servers take for ServerOptions: --max-concurrent,
/// --queue, --cache-capacity, --memory-budget-mb, --deadline-ms,
/// --node-budget, --window-rows, --equal-bins, --shards, --chunk-rows
/// and --max-resident-bytes.
extern const std::vector<std::string> kServerOptionFlags;

/// ServerOptions from kServerOptionFlags, each a checked
/// util::Flags::GetCount (--equal-bins at least 1); absent flags keep
/// the defaults.
util::StatusOr<ServerOptions> ServerOptionsFromFlags(const util::Flags& flags);

/// One mining request against a registered dataset.
struct MineCall {
  std::string dataset;  ///< registry handle
  core::MinerConfig config;
  std::string group_attr;
  std::vector<std::string> group_values;  ///< empty = every value
  core::EngineKind engine = core::EngineKind::kAuto;
  /// Explicit shard count from a "sharded:<n>" engine spec; 0 defers to
  /// ServerOptions::shard_count. Deployment knob — not keyed.
  size_t shards = 0;
  util::RunControl run_control;
  bool use_cache = true;
};

/// How the server disposed of one MineCall.
enum class Verdict {
  kOk = 0,          ///< a result was produced (possibly partial — see
                    ///< result->completion)
  kRejectedBusy,    ///< shed at admission: queue full
  kRejectedQuota,   ///< shed by the front end: per-tenant quota exhausted
  kExpiredInQueue,  ///< the request's own deadline passed while waiting
                    ///< (in the admission queue or on a shared in-flight
                    ///< run) before any result existed
  kCancelled,       ///< cancelled before any result existed
  kError,           ///< invalid request (see status)
};
const char* VerdictToString(Verdict verdict);

/// Where the answer came from.
enum class CacheStatus {
  kMiss = 0,  ///< this call ran the miner
  kHit,       ///< served from the cache, no run
  kShared,    ///< waited on another call's identical in-flight run
  kBypass,    ///< caching disabled for this call
};
const char* CacheStatusToString(CacheStatus status);

/// Per-request report: verdict, cache disposition, timings and the
/// (shared, immutable) result.
struct MineOutcome {
  Verdict verdict = Verdict::kError;
  util::Status status;  ///< non-OK iff verdict == kError
  CacheStatus cache = CacheStatus::kMiss;
  core::EngineKind engine = core::EngineKind::kSerial;  ///< resolved
  /// Canonical request key (dataset + config + groups + the resolved
  /// engine's cache universe); zero only when the call failed before
  /// the dataset lookup.
  core::RequestKey key;
  std::shared_ptr<const core::MiningResult> result;     ///< null unless kOk
  /// The dataset generation the request resolved to (null when the
  /// lookup failed): replies render patterns against it, so a later
  /// load under the same name cannot change them.
  std::shared_ptr<const ServedDataset> dataset;
  double queue_seconds = 0.0;  ///< time spent in the admission queue
  double run_seconds = 0.0;    ///< time inside the mining engine
  double total_seconds = 0.0;  ///< end-to-end inside Server::Mine
};

/// Aggregated server counters (see the component Stats for details).
struct ServerStats {
  DatasetRegistry::Stats registry;
  ResultCache::Stats cache;
  AdmissionController::Stats admission;
  uint64_t requests = 0;      ///< Mine() calls
  uint64_t runs_started = 0;  ///< calls that executed a mining engine
  uint64_t ok = 0;
  uint64_t rejected_busy = 0;
  uint64_t errors = 0;
};

/// The in-process serving facade: dataset registry + canonical result
/// cache + admission control in front of the mining engines. Thread-safe;
/// one Server instance is meant to outlive many concurrent Mine calls.
///
///   Server server(options);
///   server.Load("adult", "synth:adult");
///   MineCall call;
///   call.dataset = "adult";
///   call.group_attr = "class";
///   MineOutcome out = server.Mine(call);   // cold: runs the miner
///   MineOutcome again = server.Mine(call); // warm: CacheStatus::kHit
class Server {
 public:
  explicit Server(ServerOptions options);

  const ServerOptions& options() const { return options_; }

  /// Loads (or replaces) a dataset under `name`; invalidates any cached
  /// results of a replaced generation.
  util::StatusOr<std::shared_ptr<const ServedDataset>> Load(
      const std::string& name, const std::string& spec);

  /// Evicts `name` from the registry and its results from the cache.
  bool Evict(const std::string& name);

  /// Resident dataset lookup (registry Get: counts a hit/miss and
  /// refreshes recency).
  util::StatusOr<std::shared_ptr<const ServedDataset>> Dataset(
      const std::string& name);

  /// Serves one mining request end to end: registry lookup, canonical
  /// cache key, single-flight coalescing, admission control, engine
  /// selection, run, publish. Never blocks indefinitely: the queue is
  /// bounded and every wait honours the request's RunControl.
  MineOutcome Mine(const MineCall& call);

  /// Non-blocking warm probe: when `call` is answerable from the result
  /// cache right now, fills `out` exactly as Mine would (verdict kOk,
  /// CacheStatus::kHit, key, counters) and returns true. Returns false —
  /// with `out` untouched and no counters charged beyond the cache-hit
  /// bookkeeping — whenever serving would need an engine run, a
  /// single-flight wait, or would raise an error; the caller then goes
  /// through Mine. The socket front end answers hits on the network
  /// thread with this and dispatches only real work to its executor.
  bool TryCacheHit(const MineCall& call, MineOutcome* out);

  /// Drain hook: blocks until no mining run holds an admission slot and
  /// no request waits in its queue (see AdmissionController::WaitIdle).
  bool WaitIdle(int64_t timeout_ms = 0) const;

  ServerStats Stats() const;

 private:
  /// Applies the server-wide default deadline / node budget to a request
  /// that set none. Copies of a RunControl share state, so the caller's
  /// handle observes the stamped limits too (documented contract).
  void ApplyServerLimits(util::RunControl* control) const;
  /// Runs the selected engine once (admission already granted).
  util::StatusOr<core::MiningResult> RunEngine(
      const ServedDataset& ds, const MineCall& call, core::EngineKind engine,
      const util::RunControl& control) const;

  ServerOptions options_;
  DatasetRegistry registry_;
  ResultCache cache_;
  AdmissionController admission_;

  mutable std::mutex stats_mu_;
  uint64_t requests_ = 0;
  uint64_t runs_started_ = 0;
  uint64_t ok_ = 0;
  uint64_t rejected_busy_ = 0;
  uint64_t errors_ = 0;
};

}  // namespace sdadcs::serve

#endif  // SDADCS_SERVE_SERVER_H_
