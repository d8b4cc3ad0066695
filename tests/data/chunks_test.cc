#include "data/chunks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/spill.h"
#include "util/random.h"

namespace sdadcs::data {
namespace {

TEST(ChunkLayoutTest, GeometryTilesRowsExactlyForEveryChunkSize) {
  // Degenerate sizes included: chunk_rows 1 (every row its own chunk)
  // and chunk_rows > num_rows (the whole column is one short chunk).
  for (size_t rows : {0u, 1u, 7u, 100u, 4096u}) {
    for (size_t chunk_rows :
         {size_t{1}, size_t{7}, size_t{64}, rows + 1, size_t{10000}}) {
      ChunkLayout layout(rows, chunk_rows);
      ASSERT_EQ(layout.chunk_rows(), chunk_rows);
      if (rows == 0) {
        EXPECT_EQ(layout.num_chunks(), 0u);
        continue;
      }
      EXPECT_EQ(layout.num_chunks(), (rows + chunk_rows - 1) / chunk_rows);
      // Chunks tile [0, rows) contiguously and agree with chunk_of.
      uint32_t next = 0;
      for (size_t c = 0; c < layout.num_chunks(); ++c) {
        EXPECT_EQ(layout.begin(c), next);
        EXPECT_GT(layout.end(c), layout.begin(c));
        EXPECT_EQ(layout.size(c), layout.end(c) - layout.begin(c));
        EXPECT_EQ(layout.chunk_of(layout.begin(c)), c);
        EXPECT_EQ(layout.chunk_of(layout.end(c) - 1), c);
        next = layout.end(c);
      }
      EXPECT_EQ(next, rows) << rows << "/" << chunk_rows;
      // Every chunk but the last is full.
      for (size_t c = 0; c + 1 < layout.num_chunks(); ++c) {
        EXPECT_EQ(layout.size(c), chunk_rows);
      }
    }
  }
}

TEST(ChunkLayoutTest, ZeroChunkRowsFallsBackToDefault) {
  ChunkLayout layout(100, 0);
  EXPECT_EQ(layout.chunk_rows(), kDefaultChunkRows);
  EXPECT_EQ(layout.num_chunks(), 1u);
}

TEST(ForEachChunkSpanTest, PartitionsSortedSelectionAtChunkSeams) {
  // A sparse sorted selection with rows straddling several seams; the
  // spans must rebuild the selection exactly and never cross a seam.
  std::vector<uint32_t> rows = {0, 1, 6, 7, 8, 13, 14, 20, 27, 34, 99};
  for (size_t chunk_rows : {1u, 7u, 50u, 1000u}) {
    ChunkLayout layout(100, chunk_rows);
    std::vector<uint32_t> rebuilt;
    size_t spans = 0;
    ForEachChunkSpan(layout, rows.data(), rows.size(),
                     [&](uint32_t chunk, size_t b, size_t e) {
                       ++spans;
                       ASSERT_LT(b, e);
                       for (size_t i = b; i < e; ++i) {
                         EXPECT_GE(rows[i], layout.begin(chunk));
                         EXPECT_LT(rows[i], layout.end(chunk));
                         rebuilt.push_back(rows[i]);
                       }
                     });
    EXPECT_EQ(rebuilt, rows) << "chunk_rows " << chunk_rows;
    if (chunk_rows == 1) {
      EXPECT_EQ(spans, rows.size());
    }
    if (chunk_rows == 1000) {
      EXPECT_EQ(spans, 1u);  // one span: dense path
    }
  }
  // Empty selection: no spans, no crash.
  ForEachChunkSpan(ChunkLayout(100, 7), rows.data(), 0,
                   [&](uint32_t, size_t, size_t) { FAIL(); });
}

TEST(ForEachChunkSpanTest, RowRangeSlicesComposeWithMisalignedChunkSeams) {
  // Row ranges of 25 deliberately misaligned with chunk seams (7):
  // slicing a selection by row range and then spanning each slice by
  // chunk must cover the selection exactly once, with every span inside
  // both its row range and its chunk.
  std::vector<uint32_t> picked;
  util::Rng rng(17);
  for (uint32_t r = 0; r < 100; ++r) {
    if (rng.Bernoulli(0.4)) picked.push_back(r);
  }
  ChunkLayout layout(100, 7);
  const uint32_t* rows_begin = picked.data();
  const uint32_t* rows_end = rows_begin + picked.size();
  std::vector<uint32_t> rebuilt;
  for (uint32_t begin = 0; begin < 100; begin += 25) {
    const uint32_t end = begin + 25;
    const uint32_t* first = std::lower_bound(rows_begin, rows_end, begin);
    const uint32_t* last = std::lower_bound(first, rows_end, end);
    ForEachChunkSpan(layout, first, static_cast<size_t>(last - first),
                     [&](uint32_t chunk, size_t b, size_t e) {
                       for (size_t i = b; i < e; ++i) {
                         uint32_t row = first[i];
                         EXPECT_GE(row, begin);
                         EXPECT_LT(row, end);
                         EXPECT_EQ(layout.chunk_of(row), chunk);
                         rebuilt.push_back(row);
                       }
                     });
  }
  EXPECT_EQ(rebuilt, picked);
}

// A small mixed dataset with NaNs and repeated tokens, plus its spill.
Dataset MakeMixed(size_t rows) {
  DatasetBuilder b;
  int g = b.AddCategorical("g");
  int x = b.AddContinuous("x");
  int y = b.AddContinuous("y");
  util::Rng rng(5);
  for (size_t i = 0; i < rows; ++i) {
    b.AppendCategorical(g, (i % 3 == 0) ? "a" : (i % 3 == 1) ? "b" : "c");
    b.AppendContinuous(x, (i % 11 == 0) ? std::nan("")
                                        : rng.Uniform(-10.0, 10.0));
    b.AppendContinuous(y, static_cast<double>(i));
  }
  auto db = std::move(b).Build();
  EXPECT_TRUE(db.ok());
  return std::move(*db);
}

std::string SpillPath(const char* tag) {
  return testing::TempDir() + "chunks_test_" + tag + ".spill";
}

TEST(SpillTest, RoundTripIsExactForEveryChunkSize) {
  const size_t kRows = 103;
  Dataset dense = MakeMixed(kRows);
  std::string path = SpillPath("roundtrip");
  ASSERT_TRUE(WriteSpill(dense, path).ok());
  for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{64}, kRows + 1}) {
    SpillOptions opt;
    opt.chunk_rows = chunk_rows;
    auto paged = OpenSpill(path, opt);
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    ASSERT_TRUE(paged->paged());
    ASSERT_EQ(paged->num_rows(), kRows);
    ASSERT_EQ(paged->chunk_rows(), chunk_rows);
    // Schema and dictionary survive.
    ASSERT_EQ(paged->schema().num_attributes(), 3u);
    EXPECT_EQ(paged->schema().attribute(0).name, "g");
    EXPECT_EQ(paged->categorical(0).ValueOf(dense.categorical(0).code(3)),
              dense.categorical(0).ValueOf(dense.categorical(0).code(3)));
    // Every element, through the scalar paged accessors.
    for (uint32_t r = 0; r < kRows; ++r) {
      EXPECT_EQ(paged->categorical(0).code(r), dense.categorical(0).code(r));
      double pv = paged->continuous(1).value(r);
      double dv = dense.continuous(1).value(r);
      if (std::isnan(dv)) {
        EXPECT_TRUE(std::isnan(pv)) << "row " << r;
      } else {
        EXPECT_EQ(pv, dv) << "row " << r;
      }
      EXPECT_EQ(paged->continuous(2).value(r), dense.continuous(2).value(r));
    }
  }
  std::remove(path.c_str());
}

TEST(SpillTest, PinnedChunksServeChunkLocalIndices) {
  const size_t kRows = 50;
  Dataset dense = MakeMixed(kRows);
  std::string path = SpillPath("pins");
  ASSERT_TRUE(WriteSpill(dense, path).ok());
  SpillOptions opt;
  opt.chunk_rows = 7;
  auto paged = OpenSpill(path, opt);
  ASSERT_TRUE(paged.ok());
  ColumnChunks chunks = paged->chunks();
  for (size_t c = 0; c < chunks.layout().num_chunks(); ++c) {
    PinnedChunk pin = chunks.Continuous(2, static_cast<uint32_t>(c));
    ASSERT_TRUE(pin.valid());
    EXPECT_EQ(pin.row_base(), chunks.layout().begin(c));
    EXPECT_EQ(pin.rows(), chunks.layout().size(c));
    for (uint32_t r = pin.row_base(); r < pin.row_base() + pin.rows(); ++r) {
      EXPECT_EQ(pin.values()[r - pin.row_base()],
                dense.continuous(2).value(r));
    }
    PinnedChunk codes = chunks.Categorical(0, static_cast<uint32_t>(c));
    for (uint32_t r = codes.row_base(); r < codes.row_base() + codes.rows();
         ++r) {
      EXPECT_EQ(codes.codes()[r - codes.row_base()],
                dense.categorical(0).code(r));
    }
  }
  std::remove(path.c_str());
}

TEST(SpillTest, ResidentBackendHandsOutBorrowedSlices) {
  Dataset dense = MakeMixed(50);
  dense.SetChunkRows(7);
  ColumnChunks chunks = dense.chunks();
  ASSERT_FALSE(chunks.paged());
  EXPECT_EQ(chunks.layout().num_chunks(), 8u);
  PinnedChunk pin = chunks.Continuous(2, 3);
  EXPECT_EQ(pin.row_base(), 21u);
  EXPECT_EQ(pin.values(), dense.continuous(2).values().data() + 21);
  // Borrowed slices never touch a store: no stats to account.
  EXPECT_EQ(dense.chunk_store(), nullptr);
}

// A spill file written field by field, for the crafted-header cases
// below (the layout is documented in data/spill.h).
struct SpillBytes {
  std::string bytes;

  SpillBytes& Put(const void* data, size_t n) {
    bytes.append(static_cast<const char*>(data), n);
    return *this;
  }
  SpillBytes& U64(uint64_t v) { return Put(&v, sizeof(v)); }
  SpillBytes& U32(uint32_t v) { return Put(&v, sizeof(v)); }
  SpillBytes& I32(int32_t v) { return Put(&v, sizeof(v)); }
  SpillBytes& U8(uint8_t v) { return Put(&v, sizeof(v)); }
  SpillBytes& F64(double v) { return Put(&v, sizeof(v)); }
  SpillBytes& Str(const std::string& s) {
    return U32(static_cast<uint32_t>(s.size())).Put(s.data(), s.size());
  }
  SpillBytes& Header(uint64_t rows, uint64_t attrs) {
    return Put("SDCSPIL1", 8).U64(1).U64(rows).U64(attrs).U64(0);
  }
  SpillBytes& PadTo(size_t size) {
    bytes.resize(size, '\0');
    return *this;
  }

  std::string WriteTo(const char* tag) const {
    std::string path = SpillPath(tag);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    if (f != nullptr) {
      EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
      std::fclose(f);
    }
    return path;
  }
};

// A crafted file is answered InvalidArgument naming it: never an abort,
// an allocation sized by the header, or a Dataset that reads past its
// mapping.
void ExpectRejected(const SpillBytes& file, size_t size, const char* tag) {
  ASSERT_EQ(file.bytes.size(), size);
  std::string path = file.WriteTo(tag);
  auto opened = OpenSpill(path);
  std::remove(path.c_str());
  ASSERT_FALSE(opened.ok()) << tag;
  EXPECT_EQ(opened.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find(path), std::string::npos)
      << opened.status().message();
}

TEST(SpillTest, AttributeCountBeyondTheFileIsRejected) {
  ExpectRejected(SpillBytes().Header(0, uint64_t{1} << 60), 40, "attrs");
  // The same header with no attributes is a valid empty file.
  std::string path = SpillBytes().Header(0, 0).WriteTo("no_attrs");
  auto opened = OpenSpill(path);
  std::remove(path.c_str());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->num_attributes(), 0u);
}

TEST(SpillTest, DictionarySizeBeyondTheFileIsRejected) {
  auto file = [](uint32_t dict_size) {
    return SpillBytes().Header(0, 1).Str("g").U8(0).U32(dict_size).PadTo(64);
  };
  ExpectRejected(file(0xFFFFFFFFu), 64, "dict");
  std::string path = file(0).WriteTo("empty_dict");
  auto opened = OpenSpill(path);
  std::remove(path.c_str());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened->is_categorical(0));
}

TEST(SpillTest, RowCountWhoseSectionWouldWrapIsRejected) {
  // 2^61 rows of 8 bytes end 2^64 bytes past the offset: a check that
  // adds them wraps around to the offset itself.
  auto file = [](uint64_t rows) {
    return SpillBytes()
        .Header(rows, 1)
        .Str("x")
        .U8(1)
        .F64(0.0)
        .F64(0.0)
        .U8(1)
        .U64(72)
        .PadTo(128);
  };
  ExpectRejected(file(uint64_t{1} << 61), 128, "rows");
  std::string path = file(7).WriteTo("seven_rows");
  auto opened = OpenSpill(path);
  std::remove(path.c_str());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->num_rows(), 7u);
  EXPECT_EQ(opened->continuous(0).value(6), 0.0);
}

TEST(SpillTest, CodeOutsideTheDictionaryIsRejected) {
  auto file = [](int32_t second_code) {
    return SpillBytes()
        .Header(2, 1)
        .Str("g")
        .U8(0)
        .U32(1)
        .Str("a")
        .U64(64)
        .PadTo(64)
        .I32(0)
        .I32(second_code);
  };
  ExpectRejected(file(1000000), 72, "code");
  ExpectRejected(file(-2), 72, "negative_code");
  std::string path = file(kMissingCode).WriteTo("missing_code");
  auto opened = OpenSpill(path);
  std::remove(path.c_str());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->categorical(0).code(0), 0);
  EXPECT_TRUE(opened->categorical(0).is_missing(1));
}

// Column stats that hold an infinity name a value DatasetBuilder::Build
// would have refused: the open rejects the file.
TEST(SpillTest, InfiniteColumnStatsAreRejected) {
  auto file = [](double min, double max) {
    return SpillBytes()
        .Header(2, 1)
        .Str("x")
        .U8(1)
        .F64(min)
        .F64(max)
        .U8(1)
        .U64(72)
        .PadTo(72)
        .F64(min)
        .F64(max);
  };
  const double inf = std::numeric_limits<double>::infinity();
  ExpectRejected(file(-inf, 1.0), 88, "minus_inf");
  ExpectRejected(file(0.0, inf), 88, "plus_inf");
  std::string path = file(0.0, 1.0).WriteTo("finite");
  auto opened = OpenSpill(path);
  std::remove(path.c_str());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->continuous(0).value(1), 1.0);
}

TEST(ChunkStoreTest, CapEvictsUnpinnedBeforeLoadingAndPinOvershoots) {
  const size_t kRows = 64;  // chunk_rows 16 -> 4 chunks of 128 bytes each
  Dataset dense = MakeMixed(kRows);
  std::string path = SpillPath("cap");
  ASSERT_TRUE(WriteSpill(dense, path).ok());
  SpillOptions opt;
  opt.chunk_rows = 16;
  opt.max_resident_bytes = 2 * 16 * sizeof(double);  // two chunks of "y"
  auto paged = OpenSpill(path, opt);
  ASSERT_TRUE(paged.ok());
  const ChunkStore* store = paged->chunk_store();
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->stats().max_resident_bytes, opt.max_resident_bytes);

  // Attribute 2 ("y") is continuous: 128 bytes per chunk.
  const void* c0 = store->Pin(2, 0);
  ASSERT_NE(c0, nullptr);
  EXPECT_EQ(store->stats().loads, 1u);
  EXPECT_EQ(store->stats().resident_bytes, 128u);

  // Second pin fits exactly; a third must evict — but everything is
  // pinned, so Pin overshoots (never fails).
  const void* c1 = store->Pin(2, 1);
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(store->stats().resident_bytes, 256u);
  const void* c2 = store->Pin(2, 2);
  ASSERT_NE(c2, nullptr);
  EXPECT_GT(store->stats().resident_bytes, opt.max_resident_bytes);

  // Release everything: the next load evicts LRU cold chunks back under
  // the cap instead of growing.
  store->Unpin(2, 0);
  store->Unpin(2, 1);
  store->Unpin(2, 2);
  const void* c3 = store->Pin(2, 3);
  ASSERT_NE(c3, nullptr);
  EXPECT_LE(store->stats().resident_bytes, opt.max_resident_bytes);
  EXPECT_GT(store->stats().evictions, 0u);
  store->Unpin(2, 3);

  // TrimUnpinned drops everything once no pins remain.
  size_t freed = store->TrimUnpinned();
  EXPECT_GT(freed, 0u);
  EXPECT_EQ(store->stats().resident_bytes, 0u);
  // Peak never lies: it must cover the 3-chunk overshoot above.
  EXPECT_GE(store->stats().peak_resident_bytes, 3 * 128u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sdadcs::data
