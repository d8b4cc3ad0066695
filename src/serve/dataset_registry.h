#ifndef SDADCS_SERVE_DATASET_REGISTRY_H_
#define SDADCS_SERVE_DATASET_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"
#include "data/prepared.h"
#include "util/status.h"

namespace sdadcs::serve {

/// One resident dataset, sealed and immutable, shared by reference with
/// every in-flight mining run. Eviction from the registry only drops the
/// registry's reference — runs holding the shared_ptr finish safely on
/// the old data.
struct ServedDataset {
  explicit ServedDataset(data::Dataset dataset) : db(std::move(dataset)) {}

  std::string name;
  std::string spec;  ///< CSV path, "synth:<name>[:rows]" or "spill:<path>"
  uint64_t generation = 0;   ///< global monotonic load counter
  uint64_t fingerprint = 0;  ///< core::DatasetFingerprint(name, generation)
  size_t memory_bytes = 0;   ///< Dataset::MemoryUsage() at load time
  data::Dataset db;
  /// Lazily-built request-invariant artifacts (resolved groups, root
  /// bounds) over `db`. Created fresh per load, so a replace
  /// (generation bump) discards the old bundle with the old data.
  /// Borrows `db`: only reach it through a live ServedDataset handle.
  std::shared_ptr<data::PreparedDataset> prepared;
};

/// Knobs of the chunked data layer applied at dataset load time. Shared
/// by sdadcs_tool and the registry (where they come from ServerOptions).
struct DatasetLoadOptions {
  /// Chunk geometry override; 0 keeps data::kDefaultChunkRows (or, for
  /// `spill:` specs, the chunk size recorded in the file).
  size_t chunk_rows = 0;
  /// When nonzero, the dataset is served through the paged backend with
  /// at most this many bytes of chunk buffers resident: dense loads are
  /// spilled to a columnar temp file (unlinked immediately; the mapping
  /// keeps it alive) and reopened mmap-backed.
  size_t max_resident_bytes = 0;
  /// Directory for the temp spill files; empty = /tmp.
  std::string spill_dir;
};

/// Loads a dataset spec directly (no registry): a CSV path,
/// `synth:<name>[:rows]` for a built-in generator (`synth:scaling:50000`,
/// `synth:adult`, ...), or `spill:<path>` for a columnar spill file
/// opened mmap-backed. Shared by sdadcs_tool and the serving layer.
util::StatusOr<data::Dataset> LoadDatasetFromSpec(const std::string& spec);
util::StatusOr<data::Dataset> LoadDatasetFromSpec(
    const std::string& spec, const DatasetLoadOptions& options);

/// Keeps datasets resident under string handles so repeated queries skip
/// the load/seal cost, with LRU eviction against a byte budget.
///
/// Semantics:
///   - Load(name, spec) parses + seals the dataset once and publishes it
///     under `name`. Re-loading an existing name REPLACES it and bumps
///     the generation, so every cache key derived from the old handle is
///     unreachable; the eviction listener fires for the replaced entry.
///   - Get(name) returns the shared handle and marks it most recent.
///   - When the byte budget is exceeded, least-recently-used entries are
///     evicted until the total fits. The entry being loaded is exempt: a
///     single dataset larger than the whole budget stays resident alone
///     (serving nothing would be strictly worse), and the overage is
///     visible in stats().resident_bytes.
///   - Each resident dataset carries a prepared-artifact bundle whose
///     bytes (stats().artifact_bytes) count against the same budget at
///     the next Load: artifacts built since the previous enforcement
///     can push older datasets out.
///
/// Thread-safe; all methods may be called concurrently.
class DatasetRegistry {
 public:
  /// `memory_budget_bytes` = 0 means unlimited. `load_options` applies
  /// to every Load (chunk geometry + paged-backend cap).
  explicit DatasetRegistry(size_t memory_budget_bytes = 0,
                           DatasetLoadOptions load_options = {});

  /// Invoked (outside the registry lock) for every dataset that leaves
  /// the registry — evicted, replaced, or explicitly removed. The
  /// serving layer hooks cache invalidation here.
  using EvictionListener =
      std::function<void(const std::shared_ptr<const ServedDataset>&)>;
  void set_eviction_listener(EvictionListener listener);

  /// Loads (or replaces) `name` from `spec`.
  util::StatusOr<std::shared_ptr<const ServedDataset>> Load(
      const std::string& name, const std::string& spec);

  /// Resident lookup; NotFound if absent (no load-through: the caller
  /// decides which spec a name maps to).
  util::StatusOr<std::shared_ptr<const ServedDataset>> Get(
      const std::string& name);

  /// Stat-neutral probe: the resident handle or nullptr, without
  /// touching recency or the hit/miss counters. For fast-path peeks
  /// that fall back to a full Get-counting code path on miss.
  std::shared_ptr<const ServedDataset> Peek(const std::string& name) const;

  /// Explicitly removes `name`; false if it was not resident.
  bool Evict(const std::string& name);

  struct Stats {
    size_t resident = 0;        ///< datasets currently held
    size_t resident_bytes = 0;  ///< sum of their memory_bytes
    size_t budget_bytes = 0;    ///< 0 = unlimited
    uint64_t loads = 0;         ///< successful Load calls
    uint64_t replacements = 0;  ///< loads that displaced an existing name
    uint64_t hits = 0;          ///< Get found the name
    uint64_t misses = 0;        ///< Get did not
    uint64_t evictions = 0;     ///< LRU + explicit evictions (not replaces)
    /// Prepared-artifact accounting, summed over resident bundles plus
    /// (for the counters) bundles that have since left the registry.
    size_t artifact_bytes = 0;     ///< resident bundles only
    uint64_t artifact_builds = 0;  ///< group artifact builds
    uint64_t artifact_hits = 0;    ///< artifact reuses (no build)
    /// Chunk-residency accounting over paged datasets: live byte sum of
    /// resident chunk buffers, plus monotonic load/eviction counters
    /// (retired totals of departed datasets included).
    size_t resident_chunk_bytes = 0;
    uint64_t chunk_loads = 0;
    uint64_t chunk_evictions = 0;
  };
  Stats stats() const;

  /// Names of resident datasets, most recently used first.
  std::vector<std::string> ResidentNames() const;

 private:
  /// Evicts LRU entries until the budget fits, never touching `keep`.
  /// Appends the dropped entries to `out` (listener runs unlocked).
  void EnforceBudgetLocked(
      const std::string& keep,
      std::vector<std::shared_ptr<const ServedDataset>>* out);
  void TouchLocked(const std::string& name);
  /// Bytes held by resident prepared-artifact bundles (live sum: the
  /// bundles grow lazily after load).
  size_t ArtifactBytesLocked() const;
  /// Bytes held by resident chunk buffers of paged datasets (live sum:
  /// chunks materialize and evict between loads).
  size_t ChunkBytesLocked() const;
  /// Frees the unpinned chunk buffers of the least-recently-used paged
  /// dataset that yields any; returns the bytes released. Budget
  /// enforcement drains cold chunks this way before touching whole
  /// datasets.
  size_t TrimChunksLocked();
  /// Folds a departing entry's artifact counters into the retired
  /// totals so stats() stays monotonic across evictions and replaces.
  void RetireArtifactsLocked(const ServedDataset& ds);

  mutable std::mutex mu_;
  size_t budget_bytes_;
  DatasetLoadOptions load_options_;
  uint64_t next_generation_ = 1;
  // MRU-first recency list; the map holds the list iterator for O(1)
  // touch.
  std::list<std::string> recency_;
  struct Entry {
    std::shared_ptr<const ServedDataset> ds;
    std::list<std::string>::iterator pos;
  };
  std::unordered_map<std::string, Entry> entries_;
  size_t resident_bytes_ = 0;
  Stats counters_;
  // Builds/hits of bundles no longer resident (their bytes are freed).
  uint64_t retired_artifact_builds_ = 0;
  uint64_t retired_artifact_hits_ = 0;
  // Chunk loads/evictions of paged datasets no longer resident.
  uint64_t retired_chunk_loads_ = 0;
  uint64_t retired_chunk_evictions_ = 0;
  EvictionListener listener_;
};

}  // namespace sdadcs::serve

#endif  // SDADCS_SERVE_DATASET_REGISTRY_H_
