// Differential tests against brute-force oracles on small inputs.

#include <gtest/gtest.h>

#include <cstdio>

#include "common/requests.h"
#include "core/miner.h"
#include "core/productivity.h"
#include "core/search.h"
#include "core/topk.h"
#include "data/chunks.h"
#include "data/csv.h"
#include "data/prepared.h"
#include "data/spill.h"
#include "engine/registry.h"
#include "engine/session.h"
#include "synth/uci_like.h"
#include "util/random.h"

namespace sdadcs {
namespace {

using core::ContrastPattern;
using core::Miner;
using core::MinerConfig;

using test_support::GroupsRequest;

// Brute force: the best support difference achievable by ANY single
// interval (lo, hi] with endpoints on observed values of `attr`.
double BruteForceBestIntervalDiff(const data::Dataset& db,
                                  const data::GroupInfo& gi, int attr,
                                  double delta) {
  std::vector<double> values;
  for (uint32_t r : gi.base_selection()) {
    double v = db.continuous(attr).value(r);
    if (!std::isnan(v)) values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  // Candidate endpoints: every observed value plus one below the min.
  std::vector<double> edges;
  edges.push_back(values.front() - 1.0);
  edges.insert(edges.end(), values.begin(), values.end());

  double best = 0.0;
  for (size_t i = 0; i < edges.size(); ++i) {
    for (size_t j = i + 1; j < edges.size(); ++j) {
      std::vector<double> counts(gi.num_groups(), 0.0);
      for (uint32_t r : gi.base_selection()) {
        double v = db.continuous(attr).value(r);
        if (!std::isnan(v) && v > edges[i] && v <= edges[j]) {
          counts[gi.group_of(r)] += 1.0;
        }
      }
      std::vector<double> supports(counts.size());
      for (size_t g = 0; g < counts.size(); ++g) {
        supports[g] =
            counts[g] / static_cast<double>(gi.group_size(static_cast<int>(g)));
      }
      double diff = core::SupportDifference(supports);
      if (diff > delta) best = std::max(best, diff);
    }
  }
  return best;
}

TEST(DifferentialTest, SdadApproximatesOptimalIntervalAndLocatesBand) {
  // SDAD-CS restricts interval endpoints to the recursive median grid,
  // so it is NOT an exhaustive interval optimizer (the paper makes the
  // same observation when Cortana's free endpoints post higher raw
  // diffs). The contract checked here: on a planted band, the miner (a)
  // recovers a substantial fraction of the brute-force optimal interval
  // diff and (b) its top pattern overlaps the planted band — the
  // *location* is right even when the edges are grid-quantized.
  for (uint64_t seed : {11u, 22u, 33u, 44u}) {
    util::Rng rng(seed);
    data::DatasetBuilder b;
    int g = b.AddCategorical("g");
    int x = b.AddContinuous("x");
    double band_lo = rng.Uniform(10.0, 60.0);
    double band_hi = band_lo + rng.Uniform(15.0, 30.0);
    for (int i = 0; i < 800; ++i) {
      double v = rng.Uniform(0.0, 100.0);
      bool in_band = v > band_lo && v <= band_hi;
      b.AppendCategorical(g, (in_band ? rng.Bernoulli(0.85)
                                      : rng.Bernoulli(0.15))
                                 ? "a"
                                 : "b");
      b.AppendContinuous(x, v);
    }
    auto db = std::move(b).Build();
    ASSERT_TRUE(db.ok());
    auto gi = data::GroupInfo::Create(*db, 0);
    ASSERT_TRUE(gi.ok());

    double optimal = BruteForceBestIntervalDiff(*db, *gi, 1, 0.1);
    ASSERT_GT(optimal, 0.1);

    MinerConfig cfg;
    cfg.max_depth = 1;
    cfg.sdad_max_level = 6;
    auto result = Miner(cfg).Mine(*db, GroupsRequest(*gi));
    ASSERT_TRUE(result.ok());
    ASSERT_FALSE(result->contrasts.empty()) << "seed " << seed;
    double found = result->contrasts.front().diff;
    EXPECT_GE(found, 0.5 * optimal)
        << "seed " << seed << ": found " << found << " vs optimal "
        << optimal;

    // Location check: some top-3 pattern overlaps the planted band.
    bool overlaps = false;
    size_t check = std::min<size_t>(3, result->contrasts.size());
    for (size_t i = 0; i < check; ++i) {
      const core::Item& it = result->contrasts[i].itemset.item(0);
      double inter = std::min(it.hi, band_hi) - std::max(it.lo, band_lo);
      if (inter > 0.3 * (band_hi - band_lo)) overlaps = true;
    }
    EXPECT_TRUE(overlaps) << "seed " << seed;
  }
}

// Byte-exact rendering of a mined result: itemset, exact counts and the
// full-precision stats of every pattern, in rank order.
std::string RenderResult(const std::vector<ContrastPattern>& patterns) {
  std::string out;
  char buf[512];
  for (const ContrastPattern& p : patterns) {
    out += p.itemset.Key();
    for (double c : p.counts) {
      std::snprintf(buf, sizeof(buf), " %.17g", c);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), " | diff=%.17g measure=%.17g chi2=%.17g p=%.17g\n",
                  p.diff, p.measure, p.chi2, p.p_value);
    out += buf;
  }
  return out;
}

// One serial mine with the context's simd flag set explicitly, so both
// kernel paths run in one process whatever the host default.
util::StatusOr<core::MiningResult> MineWithKernels(
    const data::Dataset& db, const MinerConfig& cfg,
    const core::MineRequest& request, bool simd) {
  auto session = engine::MiningSession::Begin(db, cfg, request);
  if (!session.ok()) return session.status();
  core::PruneTable prune_table;
  core::TopK topk(static_cast<size_t>(cfg.top_k), cfg.delta);
  core::MiningCounters counters;
  core::MiningContext ctx =
      session->MakeContext(&prune_table, &topk, &counters);
  ctx.simd = simd;
  core::LatticeSearch(ctx).Run(session->attributes());
  return session->Finalize(topk.Sorted(), counters, ctx.run.completion());
}

TEST(DifferentialTest, ScalarAndVectorizedKernelsMatchExactly) {
  // The kernel path is the host's choice, never a semantic one: the AVX2
  // kernels vectorize only the interval comparisons (with ordered
  // predicates that reject NaN like the scalar test) and commit
  // surviving rows with identical scalar arithmetic, so the mined output
  // must be byte-identical. On hosts without AVX2 both legs run the
  // scalar kernels and the comparison is trivially (but still
  // correctly) equal.
  for (const std::string& name :
       {std::string("adult"), std::string("breast"),
        std::string("transfusion"), std::string("shuttle")}) {
    synth::NamedDataset nd = synth::MakeUciLike(name, /*seed=*/7);
    auto attr = nd.db.schema().IndexOf(nd.group_attr);
    ASSERT_TRUE(attr.ok());
    auto gi = data::GroupInfo::CreateForValues(nd.db, *attr, nd.groups);
    ASSERT_TRUE(gi.ok());

    MinerConfig cfg;
    cfg.max_depth = 2;
    cfg.top_k = 50;

    auto scalar =
        MineWithKernels(nd.db, cfg, GroupsRequest(*gi), /*simd=*/false);
    ASSERT_TRUE(scalar.ok());

    auto vectorized =
        MineWithKernels(nd.db, cfg, GroupsRequest(*gi), /*simd=*/true);
    ASSERT_TRUE(vectorized.ok());

    EXPECT_EQ(RenderResult(scalar->contrasts),
              RenderResult(vectorized->contrasts))
        << "dataset " << name;
    EXPECT_EQ(scalar->counters.partitions_evaluated,
              vectorized->counters.partitions_evaluated)
        << "dataset " << name;
  }
}

TEST(DifferentialTest, AnytimeStreamingMatchesNonAnytimeRun) {
  // --anytime semantics: improved reports are monotonically improving
  // previews delivered through the progress callback, and the exhaustive
  // result is unchanged by streaming them.
  synth::NamedDataset nd = synth::MakeUciLike("adult", /*seed=*/7);
  auto attr = nd.db.schema().IndexOf(nd.group_attr);
  ASSERT_TRUE(attr.ok());
  auto gi = data::GroupInfo::CreateForValues(nd.db, *attr, nd.groups);
  ASSERT_TRUE(gi.ok());

  MinerConfig cfg;
  cfg.max_depth = 2;
  cfg.top_k = 50;

  auto plain = Miner(cfg).Mine(nd.db, GroupsRequest(*gi));
  ASSERT_TRUE(plain.ok());

  size_t partials = 0;
  double last_best = 0.0;
  core::MineRequest request = GroupsRequest(*gi);
  request.run_control.set_anytime(true);
  request.run_control.set_progress_callback(
      [&](const util::RunProgress& p) {
        EXPECT_GE(p.best_measure, last_best);
        last_best = p.best_measure;
        if (!p.improved) return;
        ++partials;
        EXPECT_GT(p.patterns_found, 0u);
      });
  auto streamed = Miner(cfg).Mine(nd.db, request);
  ASSERT_TRUE(streamed.ok());
  EXPECT_GT(partials, 0u);
  EXPECT_EQ(RenderResult(plain->contrasts), RenderResult(streamed->contrasts));
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(DifferentialTest, SerialEngineByteIdenticalToPreRefactorBaseline) {
  // Golden hashes of the serial miner's byte-exact rendered output
  // (pattern keys, counts and full-precision statistics in rank order),
  // captured from the last commit BEFORE the engine-session refactor
  // with the identical RenderResult/Fnv1a code. The shared
  // prologue/epilogue must be a pure extraction: any drift in split
  // points, pruning, sorting or the post-filter changes these hashes.
  struct Golden {
    const char* name;
    size_t patterns;
    uint64_t hash;
  };
  const Golden kGolden[] = {
      {"adult", 21u, 0x40db30498c64e5d5ULL},
      {"breast", 27u, 0x3b481c9b1db9b66aULL},
      {"transfusion", 7u, 0xab3632eabc712362ULL},
      {"shuttle", 6u, 0x804b93759db9254cULL},
  };
  for (const Golden& golden : kGolden) {
    synth::NamedDataset nd = synth::MakeUciLike(golden.name, /*seed=*/7);
    auto attr = nd.db.schema().IndexOf(nd.group_attr);
    ASSERT_TRUE(attr.ok());
    auto gi = data::GroupInfo::CreateForValues(nd.db, *attr, nd.groups);
    ASSERT_TRUE(gi.ok());

    MinerConfig cfg;
    cfg.max_depth = 2;
    cfg.top_k = 50;
    auto result = Miner(cfg).Mine(nd.db, GroupsRequest(*gi));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->contrasts.size(), golden.patterns)
        << "dataset " << golden.name;
    EXPECT_EQ(Fnv1a(RenderResult(result->contrasts)), golden.hash)
        << "dataset " << golden.name
        << ": serial output drifted from the pre-refactor baseline";
  }
}

TEST(DifferentialTest, ShardedEngineByteIdenticalToSerialForEveryCount) {
  // The shard-merge engine's whole contract: the coordinator replays the
  // serial decision order and only the counting scans fan out, so for
  // EVERY shard count the rendered output must hit the same golden
  // hashes as the serial baseline — not "equivalent", byte-identical.
  // (Shards are ascending row ranges, so per-shard selections
  // concatenate into the globally sorted selection, and counts are
  // small-integer doubles whose shard sums are exact.) This is what
  // licenses keeping shard_count out of the request key.
  struct Golden {
    const char* name;
    size_t patterns;
    uint64_t hash;
  };
  const Golden kGolden[] = {
      {"adult", 21u, 0x40db30498c64e5d5ULL},
      {"breast", 27u, 0x3b481c9b1db9b66aULL},
      {"transfusion", 7u, 0xab3632eabc712362ULL},
      {"shuttle", 6u, 0x804b93759db9254cULL},
  };
  for (const Golden& golden : kGolden) {
    synth::NamedDataset nd = synth::MakeUciLike(golden.name, /*seed=*/7);
    auto attr = nd.db.schema().IndexOf(nd.group_attr);
    ASSERT_TRUE(attr.ok());
    auto gi = data::GroupInfo::CreateForValues(nd.db, *attr, nd.groups);
    ASSERT_TRUE(gi.ok());

    MinerConfig cfg;
    cfg.max_depth = 2;
    cfg.top_k = 50;
    for (size_t shards : {1u, 2u, 4u, 8u}) {
      // Through the parameterized name — the exact path the servers and
      // CLI take, with no separate dispatch to drift.
      std::string spec = "sharded:" + std::to_string(shards);
      auto parsed = engine::ParseEngine(spec);
      ASSERT_TRUE(parsed.ok()) << spec;
      auto result =
          engine::Mine(*parsed, cfg, {}, nd.db, GroupsRequest(*gi));
      ASSERT_TRUE(result.ok()) << spec << " on " << golden.name;
      EXPECT_EQ(result->contrasts.size(), golden.patterns)
          << spec << " on " << golden.name;
      EXPECT_EQ(Fnv1a(RenderResult(result->contrasts)), golden.hash)
          << spec << " on " << golden.name
          << ": sharded output drifted from the serial baseline";
    }
  }
}

TEST(DifferentialTest, ChunkedStorageByteIdenticalToDenseForEveryGeometry) {
  // The chunked data layer's whole contract: chunk size is a storage
  // knob, never a semantic one. Kernels iterate chunk spans on every
  // backend, so for any chunk size — including the degenerate 1 (every
  // row its own chunk) and rows+1 (one short chunk, the dense path) —
  // the rendered output must hit the same golden hashes as the
  // pre-chunking baseline, on the serial AND the sharded engine (shard
  // boundaries deliberately misaligned with chunk seams). Both backends
  // are exercised: resident columns re-sliced in place, and the same
  // data spilled to a columnar temp file and mined mmap-backed.
  struct Golden {
    const char* name;
    size_t patterns;
    uint64_t hash;
  };
  const Golden kGolden[] = {
      {"adult", 21u, 0x40db30498c64e5d5ULL},
      {"breast", 27u, 0x3b481c9b1db9b66aULL},
      {"transfusion", 7u, 0xab3632eabc712362ULL},
      {"shuttle", 6u, 0x804b93759db9254cULL},
  };
  MinerConfig cfg;
  cfg.max_depth = 2;
  cfg.top_k = 50;
  for (const Golden& golden : kGolden) {
    synth::NamedDataset nd = synth::MakeUciLike(golden.name, /*seed=*/7);
    std::string spill_path = testing::TempDir() + "differential_" +
                             golden.name + ".spill";
    ASSERT_TRUE(data::WriteSpill(nd.db, spill_path).ok());
    const size_t rows = nd.db.num_rows();
    for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{4096}, rows + 1}) {
      // Chunk size 1 on the full cross product is O(rows) pins per scan;
      // keep it to the two smallest datasets so the suite stays fast.
      if (chunk_rows == 1 && rows > 1000) continue;
      for (const char* engine : {"serial", "sharded:3"}) {
        // Resident backend: the same column vectors, re-sliced.
        nd.db.SetChunkRows(chunk_rows);
        auto attr = nd.db.schema().IndexOf(nd.group_attr);
        ASSERT_TRUE(attr.ok());
        auto gi = data::GroupInfo::CreateForValues(nd.db, *attr, nd.groups);
        ASSERT_TRUE(gi.ok());
        auto spec = engine::ParseEngine(engine);
        ASSERT_TRUE(spec.ok());
        auto resident =
            engine::Mine(*spec, cfg, {}, nd.db, GroupsRequest(*gi));
        ASSERT_TRUE(resident.ok());
        EXPECT_EQ(resident->contrasts.size(), golden.patterns)
            << golden.name << " resident chunk_rows=" << chunk_rows
            << " engine=" << engine;
        EXPECT_EQ(Fnv1a(RenderResult(resident->contrasts)), golden.hash)
            << golden.name << " resident chunk_rows=" << chunk_rows
            << " engine=" << engine
            << ": chunked output drifted from the dense baseline";

        // Paged backend: mmap-backed chunks materialized on demand.
        data::SpillOptions sopt;
        sopt.chunk_rows = chunk_rows;
        auto paged = data::OpenSpill(spill_path, sopt);
        ASSERT_TRUE(paged.ok()) << paged.status().ToString();
        auto pattr = paged->schema().IndexOf(nd.group_attr);
        ASSERT_TRUE(pattr.ok());
        auto pgi = data::GroupInfo::CreateForValues(*paged, *pattr,
                                                    nd.groups);
        ASSERT_TRUE(pgi.ok());
        auto mined = engine::Mine(*spec, cfg, {}, *paged, GroupsRequest(*pgi));
        ASSERT_TRUE(mined.ok());
        EXPECT_EQ(Fnv1a(RenderResult(mined->contrasts)), golden.hash)
            << golden.name << " paged chunk_rows=" << chunk_rows
            << " engine=" << engine
            << ": mmap-backed output drifted from the dense baseline";
      }
    }
    nd.db.SetChunkRows(0);
    std::remove(spill_path.c_str());
  }
}

TEST(DifferentialTest, CappedResidencyMineCompletesUnderDenseFootprint) {
  // The acceptance check of the paged backend: a mine whose chunk byte
  // cap is far below the dense column footprint still completes with
  // byte-identical output, actually pages (nonzero chunk loads and
  // evictions), and — because loads evict cold chunks first — residency
  // never exceeds the cap while the pinned working set fits.
  synth::NamedDataset nd = synth::MakeUciLike("adult", /*seed=*/7);
  auto attr = nd.db.schema().IndexOf(nd.group_attr);
  ASSERT_TRUE(attr.ok());
  auto gi = data::GroupInfo::CreateForValues(nd.db, *attr, nd.groups);
  ASSERT_TRUE(gi.ok());

  MinerConfig cfg;
  cfg.max_depth = 2;
  cfg.top_k = 50;
  auto dense = Miner(cfg).Mine(nd.db, GroupsRequest(*gi));
  ASSERT_TRUE(dense.ok());

  std::string spill_path = testing::TempDir() + "differential_capped.spill";
  ASSERT_TRUE(data::WriteSpill(nd.db, spill_path).ok());
  const size_t column_bytes = nd.db.MemoryUsage();
  data::SpillOptions sopt;
  sopt.chunk_rows = nd.db.num_rows() / 16 + 1;
  sopt.max_resident_bytes = column_bytes / 4;
  auto paged = data::OpenSpill(spill_path, sopt);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  std::remove(spill_path.c_str());  // the mapping keeps the file alive

  auto pattr = paged->schema().IndexOf(nd.group_attr);
  ASSERT_TRUE(pattr.ok());
  auto pgi = data::GroupInfo::CreateForValues(*paged, *pattr, nd.groups);
  ASSERT_TRUE(pgi.ok());
  auto capped = Miner(cfg).Mine(*paged, GroupsRequest(*pgi));
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(RenderResult(capped->contrasts), RenderResult(dense->contrasts));

  data::ChunkStats cs = paged->chunk_store()->stats();
  EXPECT_EQ(cs.max_resident_bytes, sopt.max_resident_bytes);
  EXPECT_GT(cs.loads, 0u);
  EXPECT_GT(cs.evictions, 0u);
  EXPECT_LE(cs.resident_bytes, sopt.max_resident_bytes);
  EXPECT_LE(cs.peak_resident_bytes, sopt.max_resident_bytes)
      << "evict-before-load overshot the cap: the pinned working set of "
         "a serial mine is a handful of chunks and must fit";
}

TEST(DifferentialTest, PreparedPathByteIdenticalToBaseline) {
  // The prepared-artifact warm path — precomputed root bounds and the
  // cached group artifact — must be a pure optimization: mining through
  // a PreparedDataset hits the same golden hashes as the cold serial
  // baseline above.
  struct Golden {
    const char* name;
    size_t patterns;
    uint64_t hash;
  };
  const Golden kGolden[] = {
      {"adult", 21u, 0x40db30498c64e5d5ULL},
      {"breast", 27u, 0x3b481c9b1db9b66aULL},
      {"transfusion", 7u, 0xab3632eabc712362ULL},
      {"shuttle", 6u, 0x804b93759db9254cULL},
  };
  for (const Golden& golden : kGolden) {
    synth::NamedDataset nd = synth::MakeUciLike(golden.name, /*seed=*/7);
    data::PreparedDataset prepared(&nd.db);

    MinerConfig cfg;
    cfg.max_depth = 2;
    cfg.top_k = 50;
    core::MineRequest request;
    request.group_attr = nd.group_attr;
    request.group_values = nd.groups;
    request.prepared = &prepared;
    // Twice: the first run builds the artifacts, the second reuses them;
    // both must match the golden output.
    for (int round = 0; round < 2; ++round) {
      auto result = Miner(cfg).Mine(nd.db, request);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->contrasts.size(), golden.patterns)
          << "dataset " << golden.name << " round " << round;
      EXPECT_EQ(Fnv1a(RenderResult(result->contrasts)), golden.hash)
          << "dataset " << golden.name << " round " << round
          << ": prepared-path output drifted from the baseline";
    }
    data::PreparedStats stats = prepared.stats();
    EXPECT_EQ(stats.group_builds, 1u) << golden.name;
    EXPECT_GT(stats.hits, 0u) << golden.name;
  }
}

TEST(DifferentialTest, PaperDepthGoldensHoldOnSerialNpAndParallel) {
  // The goldens above mine at depth 2, where no candidate has more than
  // two items and the prune table probes at most three attribute
  // subsets per lookup. These run at the paper's depth 5, so lookups
  // probe up to 31 subsets of 5-item candidates and every memo sees
  // deep itemsets. Four legs: serial; NP (meaningfulness and
  // optimistic pruning off, as bench_depth5_paper_settings runs it);
  // and both through the parallel engine on 4 members, which mines a
  // wide level's combinations on its team and commits them in frontier
  // order, to the serial legs' values. Beside
  // the rendered output each leg pins its partition and prune-table hit
  // counts, so a lookup that answers differently shows even where the
  // top-k would hide it.
  struct Golden {
    const char* name;
    const char* leg;
    size_t patterns;
    uint64_t hash;
    uint64_t partitions;
    uint64_t pruned_lookup;
  };
  const Golden kGolden[] = {
      {"breast", "serial", 27u, 0x3b481c9b1db9b66aULL, 18082u, 16343u},
      {"breast", "np", 100u, 0xd0628827dd823552ULL, 63246u, 0u},
      {"breast", "parallel", 27u, 0x3b481c9b1db9b66aULL, 18082u, 16343u},
      {"breast", "np parallel", 100u, 0xd0628827dd823552ULL, 63246u, 0u},
      {"mammography", "serial", 9u, 0xd4e17eba9bbbd295ULL, 788u, 481u},
      {"mammography", "np", 87u, 0xd6144b219d725325ULL, 1170u, 0u},
      {"mammography", "parallel", 9u, 0xd4e17eba9bbbd295ULL, 788u, 481u},
      {"mammography", "np parallel", 87u, 0xd6144b219d725325ULL, 1170u, 0u},
      {"transfusion", "serial", 7u, 0xab3632eabc712362ULL, 436u, 284u},
      {"transfusion", "np", 30u, 0x1b365ab74fd82012ULL, 704u, 0u},
      {"transfusion", "parallel", 7u, 0xab3632eabc712362ULL, 436u, 284u},
      {"transfusion", "np parallel", 30u, 0x1b365ab74fd82012ULL, 704u, 0u},
      {"adult", "serial", 21u, 0x40db30498c64e5d5ULL, 4233u, 3598u},
      {"adult", "np", 100u, 0xb3965b10a40c5475ULL, 41018u, 0u},
      {"adult", "parallel", 21u, 0x40db30498c64e5d5ULL, 4233u, 3598u},
      {"adult", "np parallel", 100u, 0xb3965b10a40c5475ULL, 41018u, 0u},
  };
  for (const Golden& golden : kGolden) {
    synth::NamedDataset nd = synth::MakeUciLike(golden.name, /*seed=*/7);
    auto attr = nd.db.schema().IndexOf(nd.group_attr);
    ASSERT_TRUE(attr.ok());
    auto gi = data::GroupInfo::CreateForValues(nd.db, *attr, nd.groups);
    ASSERT_TRUE(gi.ok());

    MinerConfig cfg;  // the paper's settings: depth 5, top 100
    ASSERT_EQ(cfg.max_depth, 5);
    const std::string leg = golden.leg;
    util::StatusOr<core::MiningResult> result =
        util::Status::Internal("unset");
    if (leg == "np" || leg == "np parallel") {
      cfg.meaningful_pruning = false;
      cfg.optimistic_pruning = false;
    }
    if (leg == "parallel" || leg == "np parallel") {
      auto parsed = engine::ParseEngine("parallel");
      ASSERT_TRUE(parsed.ok());
      engine::EngineOptions opts;
      opts.shard_count = 4;
      result = engine::Mine(*parsed, cfg, opts, nd.db, GroupsRequest(*gi));
    } else {
      result = Miner(cfg).Mine(nd.db, GroupsRequest(*gi));
    }
    ASSERT_TRUE(result.ok()) << leg << " on " << golden.name;
    EXPECT_EQ(result->contrasts.size(), golden.patterns)
        << leg << " on " << golden.name;
    EXPECT_EQ(Fnv1a(RenderResult(result->contrasts)), golden.hash)
        << leg << " on " << golden.name;
    EXPECT_EQ(result->counters.partitions_evaluated, golden.partitions)
        << leg << " on " << golden.name;
    EXPECT_EQ(result->counters.pruned_lookup, golden.pruned_lookup)
        << leg << " on " << golden.name;
  }
}

TEST(DifferentialTest, EveryRegistryEngineReturnsWellFormedResults) {
  // Every engine of the table must honour the shared epilogue contract
  // on real mixed data: an OK result, completion
  // kComplete under no limits, group names filled in, and a pattern
  // list in the canonical measure-descending order (SortByMeasureDesc
  // is a total order, so sortedness is exact, not approximate).
  for (const std::string& name :
       {std::string("adult"), std::string("breast")}) {
    synth::NamedDataset nd = synth::MakeUciLike(name, /*seed=*/7);
    auto attr = nd.db.schema().IndexOf(nd.group_attr);
    ASSERT_TRUE(attr.ok());
    auto gi = data::GroupInfo::CreateForValues(nd.db, *attr, nd.groups);
    ASSERT_TRUE(gi.ok());

    MinerConfig cfg;
    cfg.max_depth = 2;
    cfg.top_k = 50;
    engine::EngineOptions opts;
    opts.shard_count = 2;
    opts.window_rows = 0;  // window engine: whole dataset

    for (const engine::EngineRow& entry : engine::Engines()) {
      auto result =
          engine::Mine({entry.kind}, cfg, opts, nd.db, GroupsRequest(*gi));
      ASSERT_TRUE(result.ok())
          << entry.name << " on " << name << ": "
          << result.status().ToString();
      EXPECT_EQ(result->completion, core::Completion::kComplete)
          << entry.name << " on " << name;
      EXPECT_EQ(result->group_names.size(),
                static_cast<size_t>(gi->num_groups()))
          << entry.name << " on " << name;

      std::vector<ContrastPattern> sorted = result->contrasts;
      core::SortByMeasureDesc(&sorted);
      EXPECT_EQ(RenderResult(result->contrasts), RenderResult(sorted))
          << entry.name << " on " << name
          << ": result list is not in canonical sorted order";

      // Meaningfulness: the epilogue already ran the independently-
      // productive post-filter, so re-applying it must be a fixed point
      // (the predicate is per-pattern and deterministic).
      auto session =
          engine::MiningSession::Begin(nd.db, cfg, GroupsRequest(*gi));
      ASSERT_TRUE(session.ok());
      core::MiningCounters counters;
      core::MiningContext ctx =
          session->MakeContext(nullptr, nullptr, &counters);
      std::vector<ContrastPattern> refiltered =
          core::FilterIndependentlyProductive(ctx, result->contrasts);
      EXPECT_EQ(RenderResult(refiltered), RenderResult(result->contrasts))
          << entry.name << " on " << name
          << ": result list is not meaningfulness-filtered";
    }
  }
}

TEST(DifferentialTest, CsvRoundTripFuzz) {
  // Random categorical tokens with commas, quotes and whitespace must
  // survive a write/read cycle byte-for-byte.
  util::Rng rng(99);
  const std::string kAlphabet = "ab,\" x\t#;'\\";
  for (int trial = 0; trial < 10; ++trial) {
    data::DatasetBuilder b;
    int c = b.AddCategorical("tokens");
    int n = b.AddContinuous("num");
    std::vector<std::string> originals;
    for (int i = 0; i < 40; ++i) {
      std::string token;
      size_t len = 1 + rng.NextBelow(10);
      for (size_t k = 0; k < len; ++k) {
        token += kAlphabet[rng.NextBelow(kAlphabet.size())];
      }
      originals.push_back(token);
      b.AppendCategorical(c, token);
      b.AppendContinuous(n, rng.Uniform(-5.0, 5.0));
    }
    auto db = std::move(b).Build();
    ASSERT_TRUE(db.ok());
    auto round = data::ReadCsvString(data::WriteCsvString(*db));
    ASSERT_TRUE(round.ok()) << round.status().ToString();
    ASSERT_EQ(round->num_rows(), 40u);
    const auto& col = round->categorical(0);
    for (uint32_t r = 0; r < 40; ++r) {
      EXPECT_EQ(col.ValueOf(col.code(r)), originals[r])
          << "trial " << trial << " row " << r;
    }
  }
}

}  // namespace
}  // namespace sdadcs
