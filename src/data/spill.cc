#include "data/spill.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "data/chunks.h"
#include "util/string_util.h"

namespace sdadcs::data {

namespace {

constexpr char kMagic[8] = {'S', 'D', 'C', 'S', 'P', 'I', 'L', '1'};
constexpr uint64_t kVersion = 1;
constexpr uint8_t kTypeCategorical = 0;
constexpr uint8_t kTypeContinuous = 1;

void Put(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}
void PutU64(std::string* out, uint64_t v) { Put(out, &v, sizeof(v)); }
void PutU32(std::string* out, uint32_t v) { Put(out, &v, sizeof(v)); }
void PutU8(std::string* out, uint8_t v) { Put(out, &v, sizeof(v)); }
void PutF64(std::string* out, double v) { Put(out, &v, sizeof(v)); }
void PutStr(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  Put(out, s.data(), s.size());
}

size_t Align8(size_t n) { return (n + 7) & ~size_t{7}; }

// Serializes the header with the given per-attr data offsets. Offsets
// are fixed-width u64, so the header length does not depend on their
// values — the writer runs this twice (placeholders, then real).
std::string SerializeHeader(const Dataset& db,
                            const std::vector<uint64_t>& offsets) {
  std::string h;
  Put(&h, kMagic, sizeof(kMagic));
  PutU64(&h, kVersion);
  PutU64(&h, db.num_rows());
  PutU64(&h, db.num_attributes());
  PutU64(&h, db.chunk_rows());
  for (size_t a = 0; a < db.num_attributes(); ++a) {
    const Attribute& attr = db.schema().attribute(a);
    PutStr(&h, attr.name);
    if (attr.type == AttributeType::kCategorical) {
      PutU8(&h, kTypeCategorical);
      const CategoricalColumn& col = db.categorical(static_cast<int>(a));
      PutU32(&h, static_cast<uint32_t>(col.dictionary().size()));
      for (const std::string& s : col.dictionary()) PutStr(&h, s);
    } else {
      PutU8(&h, kTypeContinuous);
      const ContinuousColumn& col = db.continuous(static_cast<int>(a));
      PutF64(&h, col.Min());
      PutF64(&h, col.Max());
      PutU8(&h, col.AllIntegral() ? 1 : 0);
    }
    PutU64(&h, offsets[a]);
  }
  return h;
}

// Bounds-checked reader over the mapped file.
class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  bool Read(void* out, size_t n) {
    if (pos_ + n > size_) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  bool ReadU64(uint64_t* v) { return Read(v, sizeof(*v)); }
  bool ReadU32(uint32_t* v) { return Read(v, sizeof(*v)); }
  bool ReadU8(uint8_t* v) { return Read(v, sizeof(*v)); }
  bool ReadF64(double* v) { return Read(v, sizeof(*v)); }
  bool ReadStr(std::string* s) {
    uint32_t len;
    if (!ReadU32(&len) || pos_ + len > size_) return false;
    s->assign(data_ + pos_, len);
    pos_ += len;
    return true;
  }
  size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

// The fewest header bytes one attribute record can take (a categorical
// one with an empty name and dictionary), and one dictionary entry (an
// empty string). A count the rest of the file cannot hold at this rate
// is corrupt, and is rejected before it sizes an allocation.
constexpr size_t kMinAttrBytes =
    sizeof(uint32_t) + sizeof(uint8_t) + sizeof(uint32_t) + sizeof(uint64_t);
constexpr size_t kMinDictEntryBytes = sizeof(uint32_t);

// True when every one of the `rows` codes at `data` is kMissingCode or
// an index into a dictionary of `dict_size` entries.
bool CodesInDictionary(const char* data, uint64_t rows, uint32_t dict_size) {
  for (uint64_t r = 0; r < rows; ++r) {
    int32_t code;
    std::memcpy(&code, data + r * sizeof(code), sizeof(code));
    if (code != kMissingCode && static_cast<uint32_t>(code) >= dict_size) {
      return false;
    }
  }
  return true;
}

struct Mapping {
  void* data = nullptr;
  size_t size = 0;
  ~Mapping() {
    if (data != nullptr) ::munmap(data, size);
  }
};

}  // namespace

util::Status WriteSpill(const Dataset& db, const std::string& path) {
  const size_t num_attrs = db.num_attributes();
  const size_t rows = db.num_rows();
  // Pass 1: header length with placeholder offsets, then the real ones.
  std::vector<uint64_t> offsets(num_attrs, 0);
  size_t header_len = SerializeHeader(db, offsets).size();
  uint64_t off = Align8(header_len);
  for (size_t a = 0; a < num_attrs; ++a) {
    offsets[a] = off;
    size_t elem = db.is_categorical(static_cast<int>(a)) ? sizeof(int32_t)
                                                         : sizeof(double);
    off = Align8(off + rows * elem);
  }
  std::string header = SerializeHeader(db, offsets);

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return util::Status::IoError("cannot create spill file '" + path +
                                 "': " + std::strerror(errno));
  }
  auto write = [&](const void* data, size_t n) {
    return n == 0 || std::fwrite(data, 1, n, f) == n;
  };
  auto pad_to = [&](uint64_t target) {
    static const char zeros[8] = {0};
    long cur = std::ftell(f);
    return cur >= 0 && write(zeros, target - static_cast<uint64_t>(cur));
  };
  bool ok = write(header.data(), header.size());
  for (size_t a = 0; ok && a < num_attrs; ++a) {
    ok = pad_to(offsets[a]);
    if (!ok) break;
    if (db.is_categorical(static_cast<int>(a))) {
      const auto& codes = db.categorical(static_cast<int>(a)).codes();
      ok = write(codes.data(), rows * sizeof(int32_t));
    } else {
      const auto& values = db.continuous(static_cast<int>(a)).values();
      ok = write(values.data(), rows * sizeof(double));
    }
  }
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    return util::Status::IoError("short write to spill file '" + path + "'");
  }
  return util::Status::OK();
}

util::StatusOr<Dataset> OpenSpill(const std::string& path,
                                  const SpillOptions& options) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return util::Status::IoError("cannot open spill file '" + path +
                                 "': " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return util::Status::IoError("cannot stat spill file '" + path + "'");
  }
  auto mapping = std::make_shared<Mapping>();
  mapping->size = static_cast<size_t>(st.st_size);
  mapping->data =
      ::mmap(nullptr, mapping->size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the inode alive
  if (mapping->data == MAP_FAILED) {
    mapping->data = nullptr;
    return util::Status::IoError("cannot mmap spill file '" + path + "'");
  }
  const char* base = static_cast<const char*>(mapping->data);

  Reader r(base, mapping->size);
  char magic[8];
  uint64_t version, num_rows, num_attrs, default_chunk_rows;
  if (!r.Read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return util::Status::InvalidArgument("'" + path +
                                         "' is not a spill file");
  }
  if (!r.ReadU64(&version) || version != kVersion) {
    return util::Status::InvalidArgument(
        "unsupported spill version in '" + path + "'");
  }
  if (!r.ReadU64(&num_rows) || !r.ReadU64(&num_attrs) ||
      !r.ReadU64(&default_chunk_rows)) {
    return util::Status::InvalidArgument("truncated spill header in '" +
                                         path + "'");
  }
  if (num_attrs > r.remaining() / kMinAttrBytes) {
    return util::Status::InvalidArgument(
        "attribute count exceeds the header of spill file '" + path + "'");
  }

  Schema schema;
  std::vector<std::unique_ptr<CategoricalColumn>> categorical;
  std::vector<std::unique_ptr<ContinuousColumn>> continuous;
  std::vector<ChunkStore::AttrSource> sources(num_attrs);
  struct PendingSeal {
    double min, max;
    bool all_integral;
  };
  std::vector<PendingSeal> seals(num_attrs);

  for (size_t a = 0; a < num_attrs; ++a) {
    std::string name;
    uint8_t type;
    if (!r.ReadStr(&name) || !r.ReadU8(&type)) {
      return util::Status::InvalidArgument("truncated spill header in '" +
                                           path + "'");
    }
    if (type == kTypeCategorical) {
      uint32_t dict_size;
      if (!r.ReadU32(&dict_size) ||
          dict_size > r.remaining() / kMinDictEntryBytes) {
        return util::Status::InvalidArgument("truncated dictionary in '" +
                                             path + "'");
      }
      std::vector<std::string> dict(dict_size);
      for (uint32_t i = 0; i < dict_size; ++i) {
        if (!r.ReadStr(&dict[i])) {
          return util::Status::InvalidArgument("truncated dictionary in '" +
                                               path + "'");
        }
      }
      util::Status st = schema.Add(name, AttributeType::kCategorical);
      if (!st.ok()) return st;
      auto col = std::make_unique<CategoricalColumn>();
      col->SetDictionary(std::move(dict));
      categorical.push_back(std::move(col));
      continuous.push_back(nullptr);
      sources[a].elem_size = sizeof(int32_t);
    } else if (type == kTypeContinuous) {
      uint8_t all_integral;
      if (!r.ReadF64(&seals[a].min) || !r.ReadF64(&seals[a].max) ||
          !r.ReadU8(&all_integral)) {
        return util::Status::InvalidArgument("truncated column stats in '" +
                                             path + "'");
      }
      seals[a].all_integral = all_integral != 0;
      // The stats were sealed from the column's values, which
      // DatasetBuilder::Build keeps finite.
      if (seals[a].min == -std::numeric_limits<double>::infinity() ||
          seals[a].max == std::numeric_limits<double>::infinity()) {
        return util::Status::InvalidArgument("infinite value in column '" +
                                             name + "' of spill file '" +
                                             path + "'");
      }
      util::Status st = schema.Add(name, AttributeType::kContinuous);
      if (!st.ok()) return st;
      categorical.push_back(nullptr);
      continuous.push_back(std::make_unique<ContinuousColumn>());
      sources[a].elem_size = sizeof(double);
    } else {
      return util::Status::InvalidArgument(
          "unknown attribute type in spill file '" + path + "'");
    }
    uint64_t offset;
    if (!r.ReadU64(&offset) || offset > mapping->size ||
        num_rows > (mapping->size - offset) / sources[a].elem_size) {
      return util::Status::InvalidArgument(
          "data section out of bounds in spill file '" + path + "'");
    }
    sources[a].data = base + offset;
    // Everything downstream indexes dictionaries and per-code tables by
    // code without a check, so each categorical column is verified once
    // here; continuous columns stay lazy.
    if (type == kTypeCategorical &&
        !CodesInDictionary(
            base + offset, num_rows,
            static_cast<uint32_t>(categorical[a]->dictionary().size()))) {
      return util::Status::InvalidArgument(
          "categorical code outside its dictionary in spill file '" + path +
          "'");
    }
  }

  ChunkLayout layout(num_rows, options.chunk_rows != 0
                                   ? options.chunk_rows
                                   : default_chunk_rows);
  auto store = std::make_shared<ChunkStore>(
      layout, std::shared_ptr<const void>(mapping, mapping->data),
      std::move(sources), options.max_resident_bytes);
  for (size_t a = 0; a < num_attrs; ++a) {
    if (categorical[a] != nullptr) {
      categorical[a]->BindStore(store.get(), static_cast<int>(a), num_rows);
    } else {
      continuous[a]->SealStatsFrom(seals[a].min, seals[a].max,
                                   seals[a].all_integral);
      continuous[a]->BindStore(store.get(), static_cast<int>(a), num_rows);
    }
  }
  return Dataset::MakePaged(std::move(schema), num_rows, std::move(store),
                            std::move(categorical), std::move(continuous));
}

}  // namespace sdadcs::data
