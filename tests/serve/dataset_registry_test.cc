// DatasetRegistry: spec loading, handle replacement with generation
// bumps, LRU eviction against a byte budget, and the eviction listener
// the serving layer hangs cache invalidation on.

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "serve/dataset_registry.h"

namespace sdadcs::serve {
namespace {

TEST(LoadDatasetFromSpecTest, SynthScalingHonoursRowCount) {
  auto db = LoadDatasetFromSpec("synth:scaling:1000");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_rows(), 1000u);
  EXPECT_GT(db->num_attributes(), 100u);  // 120 features + group attr
}

TEST(LoadDatasetFromSpecTest, SynthUciLikeByName) {
  auto db = LoadDatasetFromSpec("synth:breast");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_rows(), 699u);  // 458 benign + 241 malignant
}

TEST(LoadDatasetFromSpecTest, UnknownSynthNameIsInvalidArgument) {
  auto db = LoadDatasetFromSpec("synth:nosuch");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(LoadDatasetFromSpecTest, MissingCsvPathFails) {
  EXPECT_FALSE(LoadDatasetFromSpec("/nonexistent/file.csv").ok());
}

TEST(DatasetRegistryTest, LoadThenGetSharesOneSealedDataset) {
  DatasetRegistry registry;
  auto loaded = registry.Load("b", "synth:breast");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->name, "b");
  EXPECT_EQ((*loaded)->spec, "synth:breast");
  EXPECT_GT((*loaded)->memory_bytes, 0u);
  EXPECT_NE((*loaded)->fingerprint, 0u);

  auto got = registry.Get("b");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->get(), loaded->get());  // same resident object

  auto missing = registry.Get("nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);

  DatasetRegistry::Stats s = registry.stats();
  EXPECT_EQ(s.resident, 1u);
  EXPECT_EQ(s.loads, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.resident_bytes, (*loaded)->memory_bytes);
}

TEST(DatasetRegistryTest, EmptyNameRejected) {
  DatasetRegistry registry;
  EXPECT_FALSE(registry.Load("", "synth:breast").ok());
}

TEST(DatasetRegistryTest, ReloadReplacesAndBumpsGeneration) {
  DatasetRegistry registry;
  std::vector<std::string> evicted_names;
  registry.set_eviction_listener(
      [&](const std::shared_ptr<const ServedDataset>& ds) {
        evicted_names.push_back(ds->name);
      });

  auto v1 = registry.Load("d", "synth:breast");
  ASSERT_TRUE(v1.ok());
  auto v2 = registry.Load("d", "synth:transfusion");
  ASSERT_TRUE(v2.ok());

  // The replaced generation fired the listener; the new one is resident.
  EXPECT_EQ(evicted_names, std::vector<std::string>{"d"});
  EXPECT_GT((*v2)->generation, (*v1)->generation);
  EXPECT_NE((*v2)->fingerprint, (*v1)->fingerprint);

  DatasetRegistry::Stats s = registry.stats();
  EXPECT_EQ(s.resident, 1u);
  EXPECT_EQ(s.loads, 2u);
  EXPECT_EQ(s.replacements, 1u);
  EXPECT_EQ(s.evictions, 0u);  // replacement is not an eviction

  // The old handle stays alive for whoever still holds it.
  EXPECT_EQ((*v1)->spec, "synth:breast");
  EXPECT_GT((*v1)->db.num_rows(), 0u);
}

TEST(DatasetRegistryTest, ExplicitEvictFiresListener) {
  DatasetRegistry registry;
  int evictions = 0;
  registry.set_eviction_listener(
      [&](const std::shared_ptr<const ServedDataset>&) { ++evictions; });
  ASSERT_TRUE(registry.Load("d", "synth:breast").ok());
  EXPECT_TRUE(registry.Evict("d"));
  EXPECT_FALSE(registry.Evict("d"));  // already gone
  EXPECT_EQ(evictions, 1);
  EXPECT_FALSE(registry.Get("d").ok());
}

TEST(DatasetRegistryTest, BudgetEvictsLeastRecentlyUsedFirst) {
  // Size the budget from a real dataset so the test tracks MemoryUsage
  // drift: room for about two transfusion-sized datasets, not three.
  auto probe = DatasetRegistry().Load("probe", "synth:transfusion");
  ASSERT_TRUE(probe.ok());
  const size_t one = (*probe)->memory_bytes;

  DatasetRegistry registry(2 * one + one / 2);
  std::vector<std::string> evicted;
  registry.set_eviction_listener(
      [&](const std::shared_ptr<const ServedDataset>& ds) {
        evicted.push_back(ds->name);
      });

  ASSERT_TRUE(registry.Load("a", "synth:transfusion").ok());
  ASSERT_TRUE(registry.Load("b", "synth:transfusion").ok());
  // Touch "a" so "b" is the LRU victim when "c" overflows the budget.
  ASSERT_TRUE(registry.Get("a").ok());
  ASSERT_TRUE(registry.Load("c", "synth:transfusion").ok());

  EXPECT_EQ(evicted, std::vector<std::string>{"b"});
  EXPECT_EQ(registry.ResidentNames(), (std::vector<std::string>{"c", "a"}));
  DatasetRegistry::Stats s = registry.stats();
  EXPECT_EQ(s.resident, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(s.resident_bytes, s.budget_bytes);
}

TEST(DatasetRegistryTest, OversizedDatasetStaysResidentAlone) {
  // A single dataset larger than the whole budget is kept (serving
  // nothing would be strictly worse); the overage shows in stats.
  DatasetRegistry registry(1);  // 1 byte
  ASSERT_TRUE(registry.Load("big", "synth:breast").ok());
  DatasetRegistry::Stats s = registry.stats();
  EXPECT_EQ(s.resident, 1u);
  EXPECT_GT(s.resident_bytes, s.budget_bytes);
  EXPECT_TRUE(registry.Get("big").ok());

  // Loading a second dataset now evicts the LRU one to chase the budget.
  ASSERT_TRUE(registry.Load("big2", "synth:transfusion").ok());
  EXPECT_EQ(registry.ResidentNames(), std::vector<std::string>{"big2"});
}

TEST(DatasetRegistryTest, ReplaceStartsAFreshArtifactBundle) {
  DatasetRegistry registry;
  auto v1 = registry.Load("d", "synth:breast");
  ASSERT_TRUE(v1.ok());
  ASSERT_NE((*v1)->prepared, nullptr);

  // Warm the old generation's bundle with two group specs.
  ASSERT_TRUE((*v1)->prepared->Groups("class", {}).ok());
  ASSERT_TRUE((*v1)->prepared->Groups("class", {"Benign", "Malignant"}).ok());
  data::PreparedStats warm = (*v1)->prepared->stats();
  ASSERT_EQ(warm.group_builds, 2u);
  DatasetRegistry::Stats before = registry.stats();
  EXPECT_EQ(before.artifact_builds, warm.group_builds);
  EXPECT_EQ(before.artifact_bytes, warm.bytes);

  // The replacement (generation bump) carries a fresh, empty bundle:
  // nothing derived from the old rows can leak into the new generation.
  auto v2 = registry.Load("d", "synth:breast");
  ASSERT_TRUE(v2.ok());
  EXPECT_GT((*v2)->generation, (*v1)->generation);
  EXPECT_NE((*v2)->prepared.get(), (*v1)->prepared.get());
  data::PreparedStats fresh = (*v2)->prepared->stats();
  EXPECT_EQ(fresh.group_builds, 0u);
  EXPECT_EQ(fresh.bytes, 0u);

  // The retired generation's build counters survive in the registry
  // stats (monotonic), while its bytes are released.
  DatasetRegistry::Stats after = registry.stats();
  EXPECT_EQ(after.artifact_builds, before.artifact_builds);
  EXPECT_EQ(after.artifact_bytes, 0u);
}

TEST(DatasetRegistryTest, ArtifactBytesChargeAgainstTheBudget) {
  // Measure one dataset's load size and artifact footprint first.
  auto probe = DatasetRegistry().Load("probe", "synth:transfusion");
  ASSERT_TRUE(probe.ok());
  const size_t one = (*probe)->memory_bytes;
  ASSERT_TRUE((*probe)->prepared->Groups("donated", {}).ok());
  const size_t artifacts = (*probe)->prepared->stats().bytes;
  ASSERT_GT(artifacts, 0u);
  // The test needs artifacts to be the tie-breaker, not the dominant
  // term; guard against the synth dataset shrinking under it.
  ASSERT_LE(artifacts, 2 * one);

  // Budget fits three bare datasets, but not three plus one warmed
  // bundle: building artifacts on a resident dataset must push the LRU
  // entry out at the next load.
  DatasetRegistry registry(3 * one + artifacts / 2);
  std::vector<std::string> evicted;
  registry.set_eviction_listener(
      [&](const std::shared_ptr<const ServedDataset>& ds) {
        evicted.push_back(ds->name);
      });
  auto a = registry.Load("a", "synth:transfusion");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(registry.Load("b", "synth:transfusion").ok());

  // Warm "a"'s bundle (this also refreshes its recency via Get).
  ASSERT_TRUE(registry.Get("a").ok());
  ASSERT_TRUE((*a)->prepared->Groups("donated", {}).ok());
  DatasetRegistry::Stats warm = registry.stats();
  EXPECT_EQ(warm.artifact_bytes, artifacts);

  ASSERT_TRUE(registry.Load("c", "synth:transfusion").ok());
  EXPECT_EQ(evicted, std::vector<std::string>{"b"});
  EXPECT_EQ(registry.ResidentNames(), (std::vector<std::string>{"c", "a"}));
}

TEST(DatasetRegistryTest, LoadOptionsPageDatasetsThroughTheSpillBackend) {
  // With a byte cap in the load options, every Load spills to a temp
  // columnar file and serves the dataset mmap-backed: the registry
  // charges only the (small) resident parts up front and the chunk
  // counters come alive as soon as anything touches column data.
  DatasetLoadOptions load_options;
  load_options.chunk_rows = 64;
  load_options.max_resident_bytes = 16 * 1024;
  DatasetRegistry registry(/*memory_budget_bytes=*/0, load_options);
  auto loaded = registry.Load("t", "synth:transfusion");
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE((*loaded)->db.paged());
  EXPECT_EQ((*loaded)->db.chunk_rows(), 64u);

  const size_t dense =
      DatasetRegistry().Load("probe", "synth:transfusion").value()->memory_bytes;
  EXPECT_LT((*loaded)->memory_bytes, dense);

  // A scalar read materializes the covering chunk; stats() sees it.
  (void)(*loaded)->db.continuous(1).value(0);
  DatasetRegistry::Stats s = registry.stats();
  EXPECT_GT(s.chunk_loads, 0u);
  EXPECT_GT(s.resident_chunk_bytes, 0u);
  EXPECT_LE(s.resident_chunk_bytes, load_options.max_resident_bytes);

  // Retired counters keep the totals monotonic across eviction.
  ASSERT_TRUE(registry.Evict("t"));
  DatasetRegistry::Stats after = registry.stats();
  EXPECT_EQ(after.resident_chunk_bytes, 0u);
  EXPECT_GE(after.chunk_loads, s.chunk_loads);
}

// The temp spill a paged load writes is the registry's own file: a
// failure to write it is a server fault (kInternal), while a spec path
// that cannot be read stays the loader's IoError.
TEST(DatasetRegistryTest, TempSpillFailureIsInternal) {
  DatasetLoadOptions load_options;
  load_options.max_resident_bytes = 16 * 1024;
  load_options.spill_dir = "/nonexistent/spill/dir";
  DatasetRegistry registry(/*memory_budget_bytes=*/0, load_options);
  auto paged = registry.Load("t", "synth:transfusion");
  ASSERT_FALSE(paged.ok());
  EXPECT_EQ(paged.status().code(), util::StatusCode::kInternal);
  auto missing = registry.Load("m", "/nonexistent/file.csv");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kIoError);
}

TEST(DatasetRegistryTest, BudgetTrimsColdChunksBeforeEvictingDatasets) {
  // Measure the paged load size first, then set a budget that fits two
  // paged datasets but not two plus their materialized chunks: the
  // enforcement must free cold chunk buffers and keep both datasets.
  DatasetLoadOptions load_options;
  load_options.chunk_rows = 64;
  load_options.max_resident_bytes = 1024 * 1024;
  const size_t one = DatasetRegistry(0, load_options)
                         .Load("probe", "synth:transfusion")
                         .value()
                         ->memory_bytes;

  DatasetRegistry registry(2 * one + 4096, load_options);
  std::vector<std::string> evicted;
  registry.set_eviction_listener(
      [&](const std::shared_ptr<const ServedDataset>& ds) {
        evicted.push_back(ds->name);
      });
  auto a = registry.Load("a", "synth:transfusion");
  ASSERT_TRUE(a.ok());
  // Materialize well over the 4KB of headroom in cold chunks.
  for (uint32_t r = 0; r < (*a)->db.num_rows(); r += 32) {
    (void)(*a)->db.continuous(1).value(r);
    (void)(*a)->db.continuous(2).value(r);
  }
  ASSERT_GT(registry.stats().resident_chunk_bytes, 4096u);

  ASSERT_TRUE(registry.Load("b", "synth:transfusion").ok());
  EXPECT_TRUE(evicted.empty()) << "a whole dataset was evicted where "
                                  "trimming cold chunks sufficed";
  EXPECT_EQ(registry.stats().resident, 2u);
  EXPECT_GT(registry.stats().chunk_evictions, 0u);
}

TEST(DatasetRegistryTest, ResidentNamesIsMruFirst) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Load("a", "synth:breast").ok());
  ASSERT_TRUE(registry.Load("b", "synth:transfusion").ok());
  EXPECT_EQ(registry.ResidentNames(), (std::vector<std::string>{"b", "a"}));
  ASSERT_TRUE(registry.Get("a").ok());
  EXPECT_EQ(registry.ResidentNames(), (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace sdadcs::serve
