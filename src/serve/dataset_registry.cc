#include "serve/dataset_registry.h"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <utility>

#include "core/request_key.h"
#include "data/csv.h"
#include "data/spill.h"
#include "synth/scaling.h"
#include "synth/uci_like.h"
#include "util/string_util.h"

namespace sdadcs::serve {

namespace {

// Converts a dense dataset into a paged one: spill to a columnar temp
// file, reopen mmap-backed with the requested chunk geometry and byte
// cap, and unlink the file immediately — the mapping keeps the inode
// alive, and nothing leaks if the process dies. The temp file is the
// registry's own, not one a spec named, so its failures are kInternal.
util::StatusOr<data::Dataset> PageThroughSpill(
    const data::Dataset& db, const DatasetLoadOptions& options) {
  static std::atomic<uint64_t> counter{0};
  std::string dir = options.spill_dir.empty() ? "/tmp" : options.spill_dir;
  std::string path = dir + "/sdadcs_spill_" +
                     std::to_string(static_cast<long>(::getpid())) + "_" +
                     std::to_string(counter.fetch_add(1)) + ".spill";
  util::Status st = data::WriteSpill(db, path);
  if (!st.ok()) return util::Status::Internal(st.message());
  data::SpillOptions sopt;
  sopt.chunk_rows = options.chunk_rows;
  sopt.max_resident_bytes = options.max_resident_bytes;
  util::StatusOr<data::Dataset> paged = data::OpenSpill(path, sopt);
  ::unlink(path.c_str());
  if (!paged.ok()) return util::Status::Internal(paged.status().message());
  return paged;
}

}  // namespace

util::StatusOr<data::Dataset> LoadDatasetFromSpec(const std::string& spec) {
  return LoadDatasetFromSpec(spec, DatasetLoadOptions{});
}

util::StatusOr<data::Dataset> LoadDatasetFromSpec(
    const std::string& spec, const DatasetLoadOptions& options) {
  if (util::StartsWith(spec, "spill:")) {
    data::SpillOptions sopt;
    sopt.chunk_rows = options.chunk_rows;
    sopt.max_resident_bytes = options.max_resident_bytes;
    return data::OpenSpill(spec.substr(6), sopt);
  }
  util::StatusOr<data::Dataset> db = [&]() -> util::StatusOr<data::Dataset> {
    if (!util::StartsWith(spec, "synth:")) {
      return data::ReadCsvFile(spec);
    }
    std::string rest = spec.substr(6);
    std::string name = rest;
    size_t rows = 0;
    size_t colon = rest.find(':');
    if (colon != std::string::npos) {
      name = rest.substr(0, colon);
      rows = static_cast<size_t>(
          std::strtoull(rest.c_str() + colon + 1, nullptr, 10));
    }
    if (name == "scaling") {
      synth::ScalingOptions opt;
      if (rows > 0) opt.rows = rows;
      return std::move(synth::MakeScalingDataset(opt).db);
    }
    for (const std::string& known : synth::UciLikeNames()) {
      if (name == known) {
        return std::move(synth::MakeUciLike(name).db);
      }
    }
    return util::Status::InvalidArgument("unknown synthetic dataset '" +
                                         name + "'");
  }();
  if (!db.ok()) return db;
  if (options.max_resident_bytes > 0) {
    return PageThroughSpill(*db, options);
  }
  if (options.chunk_rows > 0) {
    db->SetChunkRows(options.chunk_rows);
  }
  return db;
}

DatasetRegistry::DatasetRegistry(size_t memory_budget_bytes,
                                 DatasetLoadOptions load_options)
    : budget_bytes_(memory_budget_bytes),
      load_options_(std::move(load_options)) {
  counters_.budget_bytes = memory_budget_bytes;
}

void DatasetRegistry::set_eviction_listener(EvictionListener listener) {
  std::lock_guard<std::mutex> lock(mu_);
  listener_ = std::move(listener);
}

util::StatusOr<std::shared_ptr<const ServedDataset>> DatasetRegistry::Load(
    const std::string& name, const std::string& spec) {
  if (name.empty()) {
    return util::Status::InvalidArgument("dataset name must not be empty");
  }
  // Parse/generate outside the lock: loads are the slow path and must
  // not stall concurrent Get()s.
  util::StatusOr<data::Dataset> db = LoadDatasetFromSpec(spec, load_options_);
  if (!db.ok()) return db.status();

  auto served = std::make_shared<ServedDataset>(std::move(*db));
  served->name = name;
  served->spec = spec;
  served->memory_bytes = served->db.MemoryUsage();
  // Fresh bundle per load: a replace under the same name starts over
  // with empty artifacts (the old data's sort order is meaningless for
  // the new rows).
  served->prepared = std::make_shared<data::PreparedDataset>(&served->db);

  std::vector<std::shared_ptr<const ServedDataset>> dropped;
  EvictionListener listener;
  {
    std::lock_guard<std::mutex> lock(mu_);
    served->generation = next_generation_++;
    served->fingerprint =
        core::DatasetFingerprint(name, served->generation);
    auto it = entries_.find(name);
    if (it != entries_.end()) {
      ++counters_.replacements;
      resident_bytes_ -= it->second.ds->memory_bytes;
      RetireArtifactsLocked(*it->second.ds);
      dropped.push_back(it->second.ds);
      recency_.erase(it->second.pos);
      entries_.erase(it);
    }
    recency_.push_front(name);
    entries_[name] = Entry{served, recency_.begin()};
    resident_bytes_ += served->memory_bytes;
    ++counters_.loads;
    EnforceBudgetLocked(name, &dropped);
    listener = listener_;
  }
  if (listener) {
    for (const auto& ds : dropped) listener(ds);
  }
  return std::shared_ptr<const ServedDataset>(served);
}

util::StatusOr<std::shared_ptr<const ServedDataset>> DatasetRegistry::Get(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    ++counters_.misses;
    return util::Status::NotFound("dataset '" + name +
                                  "' is not loaded (use the load op)");
  }
  ++counters_.hits;
  TouchLocked(name);
  return it->second.ds;
}

std::shared_ptr<const ServedDataset> DatasetRegistry::Peek(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.ds;
}

bool DatasetRegistry::Evict(const std::string& name) {
  std::shared_ptr<const ServedDataset> dropped;
  EvictionListener listener;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it == entries_.end()) return false;
    dropped = it->second.ds;
    resident_bytes_ -= it->second.ds->memory_bytes;
    RetireArtifactsLocked(*it->second.ds);
    recency_.erase(it->second.pos);
    entries_.erase(it);
    ++counters_.evictions;
    listener = listener_;
  }
  if (listener) listener(dropped);
  return true;
}

DatasetRegistry::Stats DatasetRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = counters_;
  s.resident = entries_.size();
  s.resident_bytes = resident_bytes_;
  // Bundles grow lazily, so artifact accounting is read live from the
  // resident entries and topped up with the retired totals.
  s.artifact_builds = retired_artifact_builds_;
  s.artifact_hits = retired_artifact_hits_;
  s.chunk_loads = retired_chunk_loads_;
  s.chunk_evictions = retired_chunk_evictions_;
  for (const auto& [name, entry] : entries_) {
    data::PreparedStats ps = entry.ds->prepared->stats();
    s.artifact_bytes += ps.bytes;
    s.artifact_builds += ps.group_builds;
    s.artifact_hits += ps.hits;
    const data::ChunkStore* store = entry.ds->db.chunk_store();
    if (store != nullptr) {
      data::ChunkStats cs = store->stats();
      s.resident_chunk_bytes += cs.resident_bytes;
      s.chunk_loads += cs.loads;
      s.chunk_evictions += cs.evictions;
    }
  }
  return s;
}

std::vector<std::string> DatasetRegistry::ResidentNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {recency_.begin(), recency_.end()};
}

void DatasetRegistry::EnforceBudgetLocked(
    const std::string& keep,
    std::vector<std::shared_ptr<const ServedDataset>>* out) {
  if (budget_bytes_ == 0) return;
  // Artifact and resident chunk bytes count against the same budget as
  // the datasets they derive from; since bundles grow and chunks
  // materialize lazily between loads, the sums are recomputed after
  // every release.
  while (resident_bytes_ + ArtifactBytesLocked() + ChunkBytesLocked() >
         budget_bytes_) {
    // Cold chunks go first: dropping a paged dataset's unpinned buffers
    // costs one reload from its mapping, dropping a whole dataset costs
    // a full reload + reparse. Only then fall back to LRU datasets.
    if (TrimChunksLocked() > 0) continue;
    if (entries_.size() <= 1) return;
    // Walk from the LRU end, skipping the entry we must keep.
    auto victim = recency_.end();
    do {
      --victim;
    } while (victim != recency_.begin() && *victim == keep);
    if (*victim == keep) return;
    auto it = entries_.find(*victim);
    resident_bytes_ -= it->second.ds->memory_bytes;
    RetireArtifactsLocked(*it->second.ds);
    out->push_back(it->second.ds);
    entries_.erase(it);
    recency_.erase(victim);
    ++counters_.evictions;
  }
}

size_t DatasetRegistry::ArtifactBytesLocked() const {
  size_t total = 0;
  for (const auto& [name, entry] : entries_) {
    total += entry.ds->prepared->stats().bytes;
  }
  return total;
}

size_t DatasetRegistry::ChunkBytesLocked() const {
  size_t total = 0;
  for (const auto& [name, entry] : entries_) {
    const data::ChunkStore* store = entry.ds->db.chunk_store();
    if (store != nullptr) total += store->stats().resident_bytes;
  }
  return total;
}

size_t DatasetRegistry::TrimChunksLocked() {
  // LRU end first: the coldest dataset loses its cold chunks before a
  // warm one does.
  for (auto it = recency_.rbegin(); it != recency_.rend(); ++it) {
    const data::ChunkStore* store =
        entries_.find(*it)->second.ds->db.chunk_store();
    if (store == nullptr) continue;
    size_t freed = store->TrimUnpinned();
    if (freed > 0) return freed;
  }
  return 0;
}

void DatasetRegistry::RetireArtifactsLocked(const ServedDataset& ds) {
  data::PreparedStats ps = ds.prepared->stats();
  retired_artifact_builds_ += ps.group_builds;
  retired_artifact_hits_ += ps.hits;
  const data::ChunkStore* store = ds.db.chunk_store();
  if (store != nullptr) {
    data::ChunkStats cs = store->stats();
    retired_chunk_loads_ += cs.loads;
    retired_chunk_evictions_ += cs.evictions;
  }
}

void DatasetRegistry::TouchLocked(const std::string& name) {
  auto it = entries_.find(name);
  recency_.erase(it->second.pos);
  recency_.push_front(name);
  it->second.pos = recency_.begin();
}

}  // namespace sdadcs::serve
