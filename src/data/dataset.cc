#include "data/dataset.h"

#include <limits>

#include "util/logging.h"
#include "util/string_util.h"

namespace sdadcs::data {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

}  // namespace

const CategoricalColumn& Dataset::categorical(int attr) const {
  SDADCS_CHECK(is_categorical(attr));
  return *categorical_[attr];
}

const ContinuousColumn& Dataset::continuous(int attr) const {
  SDADCS_CHECK(is_continuous(attr));
  return *continuous_[attr];
}

std::string Dataset::DebugRow(uint32_t row) const {
  std::string out;
  for (size_t a = 0; a < num_attributes(); ++a) {
    if (a > 0) out += ", ";
    out += schema_.attribute(a).name;
    out += "=";
    if (is_categorical(static_cast<int>(a))) {
      const CategoricalColumn& col = *categorical_[a];
      out += col.is_missing(row) ? "?" : col.ValueOf(col.code(row));
    } else {
      const ContinuousColumn& col = *continuous_[a];
      out += col.is_missing(row) ? "?" : util::FormatDouble(col.value(row));
    }
  }
  return out;
}

void Dataset::SetChunkRows(size_t n) {
  SDADCS_CHECK(chunk_store_ == nullptr);  // paged layout is fixed at open
  chunk_rows_ = n == 0 ? kDefaultChunkRows : n;
}

Dataset Dataset::MakePaged(
    Schema schema, size_t num_rows, std::shared_ptr<ChunkStore> store,
    std::vector<std::unique_ptr<CategoricalColumn>> categorical,
    std::vector<std::unique_ptr<ContinuousColumn>> continuous) {
  Dataset ds;
  ds.schema_ = std::move(schema);
  ds.num_rows_ = num_rows;
  ds.chunk_rows_ = store->layout().chunk_rows();
  ds.chunk_store_ = std::move(store);
  ds.categorical_ = std::move(categorical);
  ds.continuous_ = std::move(continuous);
  return ds;
}

size_t Dataset::MemoryUsage() const {
  size_t bytes = sizeof(Dataset);
  for (size_t a = 0; a < num_attributes(); ++a) {
    bytes += sizeof(void*) * 2;  // the two parallel column slots
    if (categorical_[a]) bytes += categorical_[a]->MemoryUsage();
    if (continuous_[a]) bytes += continuous_[a]->MemoryUsage();
    bytes += schema_.attribute(static_cast<int>(a)).name.capacity();
  }
  return bytes;
}

int DatasetBuilder::AddCategorical(const std::string& name) {
  util::Status st = ds_.schema_.Add(name, AttributeType::kCategorical);
  if (!st.ok()) {
    if (deferred_error_.ok()) deferred_error_ = st;
    return -1;
  }
  ds_.categorical_.push_back(std::make_unique<CategoricalColumn>());
  ds_.continuous_.push_back(nullptr);
  return static_cast<int>(ds_.schema_.num_attributes()) - 1;
}

int DatasetBuilder::AddContinuous(const std::string& name) {
  util::Status st = ds_.schema_.Add(name, AttributeType::kContinuous);
  if (!st.ok()) {
    if (deferred_error_.ok()) deferred_error_ = st;
    return -1;
  }
  ds_.categorical_.push_back(nullptr);
  ds_.continuous_.push_back(std::make_unique<ContinuousColumn>());
  return static_cast<int>(ds_.schema_.num_attributes()) - 1;
}

void DatasetBuilder::AppendCategorical(int attr, std::string_view value) {
  SDADCS_CHECK(ds_.is_categorical(attr));
  ds_.categorical_[attr]->Append(value);
}

void DatasetBuilder::AppendContinuous(int attr, double value) {
  SDADCS_CHECK(ds_.is_continuous(attr));
  ds_.continuous_[attr]->Append(value);
}

void DatasetBuilder::AppendMissing(int attr) {
  if (ds_.is_categorical(attr)) {
    ds_.categorical_[attr]->AppendMissing();
  } else {
    ds_.continuous_[attr]->AppendMissing();
  }
}

size_t DatasetBuilder::ColumnSize(int attr) const {
  if (ds_.is_categorical(attr)) return ds_.categorical_[attr]->size();
  return ds_.continuous_[attr]->size();
}

util::StatusOr<Dataset> DatasetBuilder::Build() && {
  if (!deferred_error_.ok()) return deferred_error_;
  if (ds_.schema_.num_attributes() == 0) {
    return util::Status::InvalidArgument("dataset has no attributes");
  }
  size_t n = ColumnSize(0);
  for (size_t a = 1; a < ds_.schema_.num_attributes(); ++a) {
    if (ColumnSize(static_cast<int>(a)) != n) {
      return util::Status::InvalidArgument(util::StrFormat(
          "ragged columns: attribute '%s' has %zu values, expected %zu",
          ds_.schema_.attribute(a).name.c_str(),
          ColumnSize(static_cast<int>(a)), n));
    }
  }
  ds_.num_rows_ = n;
  for (size_t a = 0; a < ds_.continuous_.size(); ++a) {
    ContinuousColumn* col = ds_.continuous_[a].get();
    if (col == nullptr) continue;
    col->SealStats();
    // As in a CSV file: an infinite value leaves no root bound below or
    // above it (data::ComputeRootBounds), so its rows would fall outside
    // every root split while still counting in their group.
    if (col->sealed_min() == -kInfinity || col->sealed_max() == kInfinity) {
      return util::Status::InvalidArgument(
          util::StrFormat("attribute '%s' holds an infinite value",
                          ds_.schema_.attribute(a).name.c_str()));
    }
  }
  return std::move(ds_);
}

}  // namespace sdadcs::data
