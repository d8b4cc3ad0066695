#ifndef SDADCS_DATA_DATASET_H_
#define SDADCS_DATA_DATASET_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "data/chunks.h"
#include "data/column.h"
#include "data/schema.h"
#include "util/status.h"

namespace sdadcs::data {

/// Immutable columnar table of mixed categorical/continuous attributes.
/// Built through DatasetBuilder; shared read-only by the mining threads.
///
/// Storage backends. Resident (default): every column's array lives in
/// RAM and chunks() hands out borrowed slices of it. Paged
/// (spill-backed, see data/spill.h): column data lives in an mmap'd
/// columnar spill file behind a ChunkStore, chunks() hands out
/// refcounted pins of lazily-materialized chunk buffers, and only
/// dictionaries + sealed stats stay unconditionally resident. Kernels
/// iterate selections chunk-wise (ForEachChunkSpan) on both backends, so
/// the mined output is byte-identical regardless of backend and chunk
/// size.
class Dataset {
 public:
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_attributes() const { return schema_.num_attributes(); }

  bool is_categorical(int attr) const {
    return schema_.attribute(attr).type == AttributeType::kCategorical;
  }
  bool is_continuous(int attr) const {
    return schema_.attribute(attr).type == AttributeType::kContinuous;
  }

  /// The categorical column for `attr`. Requires is_categorical(attr).
  const CategoricalColumn& categorical(int attr) const;

  /// The continuous column for `attr`. Requires is_continuous(attr).
  const ContinuousColumn& continuous(int attr) const;

  /// Renders row `row` as "name=value, ..." for debugging.
  std::string DebugRow(uint32_t row) const;

  /// Approximate resident bytes across every column (code/value arrays,
  /// dictionaries, intern indexes). The serving layer's DatasetRegistry
  /// charges this against its memory budget when deciding LRU eviction.
  /// Paged datasets report only their resident parts (schema,
  /// dictionaries); materialized chunk bytes are accounted live by the
  /// ChunkStore (chunk_store()->stats()).
  size_t MemoryUsage() const;

  /// Rows per chunk of the current layout.
  size_t chunk_rows() const { return chunk_rows_; }

  /// Re-slices the resident columns into chunks of `n` rows (0 restores
  /// the default). Setup-time call — not safe against concurrent mining,
  /// and invalid for paged datasets whose chunk size was fixed when the
  /// spill file was opened.
  void SetChunkRows(size_t n);

  /// The chunk accessor over this dataset (cheap; fetch one per kernel
  /// invocation). Borrows the Dataset.
  ColumnChunks chunks() const {
    return ColumnChunks(this, ChunkLayout(num_rows_, chunk_rows_),
                        chunk_store_.get());
  }

  bool paged() const { return chunk_store_ != nullptr; }
  /// The paged backend's store (null for resident datasets).
  const ChunkStore* chunk_store() const { return chunk_store_.get(); }

  /// Spill-open factory: a paged dataset whose columns are bound to
  /// `store` (data/spill.h is the only intended caller). The columns
  /// must already carry their dictionaries / sealed stats and be bound
  /// to the store's attribute slots.
  static Dataset MakePaged(
      Schema schema, size_t num_rows, std::shared_ptr<ChunkStore> store,
      std::vector<std::unique_ptr<CategoricalColumn>> categorical,
      std::vector<std::unique_ptr<ContinuousColumn>> continuous);

 private:
  friend class DatasetBuilder;
  Dataset() = default;

  Schema schema_;
  size_t num_rows_ = 0;
  // Parallel to schema attributes; exactly one of the two pointers is set
  // per attribute, matching its type.
  std::vector<std::unique_ptr<CategoricalColumn>> categorical_;
  std::vector<std::unique_ptr<ContinuousColumn>> continuous_;
  size_t chunk_rows_ = kDefaultChunkRows;
  // Paged backend; null = resident. shared_ptr keeps the store (and the
  // column pointers into it) address-stable across Dataset moves.
  std::shared_ptr<ChunkStore> chunk_store_;
};

/// Row- or column-wise construction of a Dataset.
///
///   DatasetBuilder b;
///   int age = b.AddContinuous("age");
///   int occ = b.AddCategorical("occupation");
///   b.AppendContinuous(age, 37.0);
///   b.AppendCategorical(occ, "engineer");
///   util::StatusOr<Dataset> db = std::move(b).Build();
class DatasetBuilder {
 public:
  DatasetBuilder() = default;

  /// Declares a categorical attribute; returns its index, or -1 when the
  /// schema refuses the name (a repeat), which Build() then reports.
  int AddCategorical(const std::string& name);
  /// Declares a continuous attribute; returns its index or -1, as above.
  int AddContinuous(const std::string& name);

  /// Appends one value to a categorical attribute.
  void AppendCategorical(int attr, std::string_view value);
  /// Appends one value to a continuous attribute (NaN = missing).
  void AppendContinuous(int attr, double value);
  /// Appends a missing value to any attribute.
  void AppendMissing(int attr);

  /// Number of values appended so far to `attr`.
  size_t ColumnSize(int attr) const;

  /// Validates that all columns have equal length and produces the
  /// Dataset. The builder is consumed.
  util::StatusOr<Dataset> Build() &&;

 private:
  Dataset ds_;
  util::Status deferred_error_;
};

}  // namespace sdadcs::data

#endif  // SDADCS_DATA_DATASET_H_
