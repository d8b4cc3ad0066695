#ifndef SDADCS_DATA_CHUNKS_H_
#define SDADCS_DATA_CHUNKS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace sdadcs::data {

class Dataset;

/// Rows per chunk when nothing is configured. Large enough that a
/// resident dataset of typical size is a single chunk (the chunk loop
/// degenerates to one span and the kernels run exactly as before), small
/// enough that a paged dataset's working set is a few hundred KB per
/// pinned column.
inline constexpr size_t kDefaultChunkRows = 65536;

/// Pure geometry of a column cut into fixed-size row chunks: every chunk
/// holds `chunk_rows` rows except the last, which holds the remainder.
/// Shared by both backends — the layout is a property of the dataset,
/// not of where the bytes live.
class ChunkLayout {
 public:
  ChunkLayout() = default;
  ChunkLayout(size_t num_rows, size_t chunk_rows)
      : num_rows_(num_rows),
        chunk_rows_(chunk_rows == 0 ? kDefaultChunkRows : chunk_rows) {}

  size_t num_rows() const { return num_rows_; }
  size_t chunk_rows() const { return chunk_rows_; }

  size_t num_chunks() const {
    return num_rows_ == 0 ? 0 : (num_rows_ + chunk_rows_ - 1) / chunk_rows_;
  }
  uint32_t begin(size_t chunk) const {
    return static_cast<uint32_t>(chunk * chunk_rows_);
  }
  uint32_t end(size_t chunk) const {
    return static_cast<uint32_t>(
        std::min(num_rows_, (chunk + 1) * chunk_rows_));
  }
  size_t size(size_t chunk) const { return end(chunk) - begin(chunk); }
  size_t chunk_of(uint32_t row) const { return row / chunk_rows_; }

 private:
  size_t num_rows_ = 0;
  size_t chunk_rows_ = kDefaultChunkRows;
};

/// Residency counters of one ChunkStore (and, summed over stores, of the
/// registry): how many chunk materializations / frees happened and how
/// many bytes of chunk buffers are resident right now.
struct ChunkStats {
  size_t resident_bytes = 0;       ///< materialized chunk buffers now
  size_t peak_resident_bytes = 0;  ///< high-water mark of resident_bytes
  size_t max_resident_bytes = 0;   ///< configured cap (0 = unlimited)
  uint64_t loads = 0;              ///< chunk materializations
  uint64_t evictions = 0;          ///< chunk buffers freed
};

/// Backing store of a paged (spill-backed) dataset: per (attr, chunk)
/// slot, a lazily-materialized heap buffer copied from the column-
/// contiguous source mapping. Thread-safe; every method may be called
/// concurrently from mining threads.
///
/// Pin/release protocol: Pin materializes the chunk (if absent) and
/// bumps its pin count; the returned pointer stays valid until the
/// matching Unpin. Materialization evicts *unpinned* LRU chunks first
/// until the new buffer fits under max_resident_bytes — evict-before-
/// load, so resident_bytes never exceeds the cap while the pinned
/// working set fits. Pinned chunks are never evicted: a kernel's pins
/// (a handful of chunks) always stay valid mid-scan.
class ChunkStore {
 public:
  /// Column-contiguous source of one attribute inside the backing
  /// mapping: `elem_size` bytes per row (8 for continuous doubles, 4 for
  /// categorical int32 codes).
  struct AttrSource {
    const void* data = nullptr;
    size_t elem_size = 0;
  };

  /// `backing` keeps the source mapping alive (mmap region; the deleter
  /// unmaps). `max_resident_bytes` = 0 means unlimited.
  ChunkStore(ChunkLayout layout, std::shared_ptr<const void> backing,
             std::vector<AttrSource> sources, size_t max_resident_bytes);

  const ChunkLayout& layout() const { return layout_; }

  /// Materializes (attr, chunk) if needed and pins it. Never fails: a
  /// pin is a hard requirement of a running kernel, so the cap yields
  /// (the overage is visible in stats) rather than the scan aborting.
  const void* Pin(int attr, uint32_t chunk) const;

  void Unpin(int attr, uint32_t chunk) const;

  /// Scalar cold-path accessors (discretizers, group resolution, report
  /// rendering): materialize the covering chunk, read one element, leave
  /// the chunk unpinned-resident for the next access.
  double ValueAt(int attr, uint32_t row) const;
  int32_t CodeAt(int attr, uint32_t row) const;

  /// Frees every unpinned chunk buffer; returns the bytes released. The
  /// registry calls this under memory pressure before evicting whole
  /// datasets.
  size_t TrimUnpinned() const;

  ChunkStats stats() const;

 private:
  struct Slot {
    std::unique_ptr<char[]> buf;
    size_t bytes = 0;
    int pins = 0;
    uint64_t last_use = 0;
  };

  uint64_t KeyOf(int attr, uint32_t chunk) const {
    return static_cast<uint64_t>(attr) * layout_.num_chunks() + chunk;
  }
  size_t ChunkBytes(int attr, uint32_t chunk) const {
    return layout_.size(chunk) * sources_[static_cast<size_t>(attr)].elem_size;
  }
  /// Returns the slot, materialized.
  Slot* EnsureLocked(int attr, uint32_t chunk) const;
  void EvictUnpinnedLocked(size_t needed_bytes) const;

  ChunkLayout layout_;
  std::shared_ptr<const void> backing_;
  std::vector<AttrSource> sources_;
  size_t max_resident_bytes_;

  mutable std::mutex mu_;
  mutable std::unordered_map<uint64_t, Slot> slots_;
  mutable uint64_t clock_ = 0;
  mutable ChunkStats stats_;
};

/// RAII pin of one column chunk: raw data pointer plus the chunk's row
/// geometry. Kernels index with *local* rows (`global_row - row_base()`)
/// so a pointer never has to be biased outside its buffer. For the
/// resident backend the "pin" is just a borrowed slice of the column
/// vector (no store, nothing to release).
class PinnedChunk {
 public:
  PinnedChunk() = default;
  PinnedChunk(const PinnedChunk&) = delete;
  PinnedChunk& operator=(const PinnedChunk&) = delete;
  PinnedChunk(PinnedChunk&& other) noexcept { *this = std::move(other); }
  PinnedChunk& operator=(PinnedChunk&& other) noexcept {
    if (this != &other) {
      Release();
      data_ = other.data_;
      row_base_ = other.row_base_;
      rows_ = other.rows_;
      store_ = other.store_;
      attr_ = other.attr_;
      chunk_ = other.chunk_;
      other.store_ = nullptr;
      other.data_ = nullptr;
    }
    return *this;
  }
  ~PinnedChunk() { Release(); }

  static PinnedChunk Resident(const void* data, uint32_t row_base,
                              uint32_t rows) {
    PinnedChunk p;
    p.data_ = data;
    p.row_base_ = row_base;
    p.rows_ = rows;
    return p;
  }
  static PinnedChunk Paged(const ChunkStore* store, int attr, uint32_t chunk,
                           const void* data, uint32_t row_base,
                           uint32_t rows) {
    PinnedChunk p;
    p.data_ = data;
    p.row_base_ = row_base;
    p.rows_ = rows;
    p.store_ = store;
    p.attr_ = attr;
    p.chunk_ = chunk;
    return p;
  }

  bool valid() const { return data_ != nullptr; }
  const double* values() const { return static_cast<const double*>(data_); }
  const int32_t* codes() const { return static_cast<const int32_t*>(data_); }
  uint32_t row_base() const { return row_base_; }
  uint32_t rows() const { return rows_; }

 private:
  void Release() {
    if (store_ != nullptr) store_->Unpin(attr_, chunk_);
    store_ = nullptr;
    data_ = nullptr;
  }

  const void* data_ = nullptr;
  uint32_t row_base_ = 0;
  uint32_t rows_ = 0;
  const ChunkStore* store_ = nullptr;
  int attr_ = -1;
  uint32_t chunk_ = 0;
};

/// The dataset's chunk accessor: layout plus per-(attr, chunk) pins,
/// backend-agnostic. Cheap to construct (two pointers and a layout);
/// fetch one per kernel invocation via Dataset::chunks(). Borrows the
/// Dataset — valid only while it is alive.
class ColumnChunks {
 public:
  const ChunkLayout& layout() const { return layout_; }
  bool paged() const { return store_ != nullptr; }

  /// Pins the chunk of a continuous / categorical column. Resident
  /// backend: a borrowed slice of the column vector. Paged backend: a
  /// refcounted pin into the store (released by the PinnedChunk).
  PinnedChunk Continuous(int attr, uint32_t chunk) const;
  PinnedChunk Categorical(int attr, uint32_t chunk) const;

 private:
  friend class Dataset;
  ColumnChunks(const Dataset* db, ChunkLayout layout, const ChunkStore* store)
      : db_(db), layout_(layout), store_(store) {}

  const Dataset* db_;
  ChunkLayout layout_;
  const ChunkStore* store_;
};

/// Partitions the sorted row-id array `rows[0..n)` into maximal runs
/// falling inside one chunk and invokes `fn(chunk, span_begin,
/// span_end)` for each (indices into `rows`, half-open). Kernels iterate
/// selections through this so no scan ever crosses a chunk seam — the
/// reason a pinned chunk pointer plus local indices is always enough.
/// With the default resident layout a whole selection is usually one
/// span, so the loop adds one binary search to the dense path.
template <typename Fn>
void ForEachChunkSpan(const ChunkLayout& layout, const uint32_t* rows,
                      size_t n, Fn&& fn) {
  size_t i = 0;
  while (i < n) {
    size_t chunk = layout.chunk_of(rows[i]);
    const uint32_t* span_end =
        std::lower_bound(rows + i, rows + n, layout.end(chunk));
    size_t j = static_cast<size_t>(span_end - rows);
    fn(static_cast<uint32_t>(chunk), i, j);
    i = j;
  }
}

}  // namespace sdadcs::data

#endif  // SDADCS_DATA_CHUNKS_H_
