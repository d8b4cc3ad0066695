#include "data/chunks.h"

#include <cstring>
#include <utility>

#include "data/dataset.h"
#include "util/logging.h"

namespace sdadcs::data {

ChunkStore::ChunkStore(ChunkLayout layout,
                       std::shared_ptr<const void> backing,
                       std::vector<AttrSource> sources,
                       size_t max_resident_bytes)
    : layout_(layout),
      backing_(std::move(backing)),
      sources_(std::move(sources)),
      max_resident_bytes_(max_resident_bytes) {
  stats_.max_resident_bytes = max_resident_bytes_;
}

void ChunkStore::EvictUnpinnedLocked(size_t needed_bytes) const {
  if (max_resident_bytes_ == 0) return;
  while (stats_.resident_bytes + needed_bytes > max_resident_bytes_) {
    // LRU among unpinned slots (the map is small: resident chunks only).
    auto victim = slots_.end();
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      if (it->second.pins > 0) continue;
      if (victim == slots_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == slots_.end()) return;  // everything left is pinned
    stats_.resident_bytes -= victim->second.bytes;
    ++stats_.evictions;
    slots_.erase(victim);
  }
}

ChunkStore::Slot* ChunkStore::EnsureLocked(int attr, uint32_t chunk) const {
  uint64_t key = KeyOf(attr, chunk);
  auto it = slots_.find(key);
  if (it != slots_.end()) {
    it->second.last_use = ++clock_;
    return &it->second;
  }
  const AttrSource& src = sources_[static_cast<size_t>(attr)];
  SDADCS_CHECK(src.data != nullptr);
  size_t bytes = ChunkBytes(attr, chunk);
  // Evict-before-load: free cold chunks first so resident_bytes never
  // overshoots the cap while the pinned working set fits under it.
  EvictUnpinnedLocked(bytes);
  Slot slot;
  slot.buf = std::make_unique<char[]>(bytes);
  slot.bytes = bytes;
  slot.last_use = ++clock_;
  std::memcpy(slot.buf.get(),
              static_cast<const char*>(src.data) +
                  static_cast<size_t>(layout_.begin(chunk)) * src.elem_size,
              bytes);
  stats_.resident_bytes += bytes;
  if (stats_.resident_bytes > stats_.peak_resident_bytes) {
    stats_.peak_resident_bytes = stats_.resident_bytes;
  }
  ++stats_.loads;
  return &slots_.emplace(key, std::move(slot)).first->second;
}

const void* ChunkStore::Pin(int attr, uint32_t chunk) const {
  std::lock_guard<std::mutex> lock(mu_);
  Slot* slot = EnsureLocked(attr, chunk);
  ++slot->pins;
  return slot->buf.get();
}

void ChunkStore::Unpin(int attr, uint32_t chunk) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(KeyOf(attr, chunk));
  SDADCS_CHECK(it != slots_.end() && it->second.pins > 0);
  --it->second.pins;
}

double ChunkStore::ValueAt(int attr, uint32_t row) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t chunk = static_cast<uint32_t>(layout_.chunk_of(row));
  Slot* slot = EnsureLocked(attr, chunk);
  return reinterpret_cast<const double*>(
      slot->buf.get())[row - layout_.begin(chunk)];
}

int32_t ChunkStore::CodeAt(int attr, uint32_t row) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t chunk = static_cast<uint32_t>(layout_.chunk_of(row));
  Slot* slot = EnsureLocked(attr, chunk);
  return reinterpret_cast<const int32_t*>(
      slot->buf.get())[row - layout_.begin(chunk)];
}

size_t ChunkStore::TrimUnpinned() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t freed = 0;
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (it->second.pins > 0) {
      ++it;
      continue;
    }
    freed += it->second.bytes;
    stats_.resident_bytes -= it->second.bytes;
    ++stats_.evictions;
    it = slots_.erase(it);
  }
  return freed;
}

ChunkStats ChunkStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

PinnedChunk ColumnChunks::Continuous(int attr, uint32_t chunk) const {
  uint32_t row_base = layout_.begin(chunk);
  uint32_t rows = static_cast<uint32_t>(layout_.size(chunk));
  if (store_ != nullptr) {
    return PinnedChunk::Paged(store_, attr, chunk,
                              store_->Pin(attr, chunk), row_base, rows);
  }
  return PinnedChunk::Resident(
      db_->continuous(attr).values().data() + row_base, row_base, rows);
}

PinnedChunk ColumnChunks::Categorical(int attr, uint32_t chunk) const {
  uint32_t row_base = layout_.begin(chunk);
  uint32_t rows = static_cast<uint32_t>(layout_.size(chunk));
  if (store_ != nullptr) {
    return PinnedChunk::Paged(store_, attr, chunk,
                              store_->Pin(attr, chunk), row_base, rows);
  }
  return PinnedChunk::Resident(
      db_->categorical(attr).codes().data() + row_base, row_base, rows);
}

}  // namespace sdadcs::data
