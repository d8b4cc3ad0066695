// Micro-benchmarks (google-benchmark) for the hot primitives of the
// miner: support counting, median partitioning, chi-square testing,
// prune-table lookups and itemset covers — plus a fused-vs-naive
// split+count kernel comparison on the scaling dataset that records
// machine-readable metrics in BENCH_micro.json.
//
// Usage: bench_micro [--smoke] [google-benchmark flags]
//   --smoke  small dataset, few repetitions, skip the google-benchmark
//            suite — a CI-speed check that still writes the JSON.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/miner.h"
#include "core/optimistic.h"
#include "core/pruning.h"
#include "core/search.h"
#include "core/space.h"
#include "core/split_kernel.h"
#include "core/support.h"
#include "core/topk.h"
#include "data/chunks.h"
#include "data/csv.h"
#include "data/group_info.h"
#include "data/order_stats.h"
#include "data/prepared.h"
#include "data/simd_select.h"
#include "data/spill.h"
#include "engine/session.h"
#include "stats/chi_squared.h"
#include "stats/fisher.h"
#include "stream/window_miner.h"
#include "synth/scaling.h"
#include "synth/uci_like.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace sdadcs {
namespace {

struct Fixture {
  synth::NamedDataset nd;
  data::GroupInfo gi;
};

const Fixture& SharedFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture{synth::MakeAdultLike(), {}};
    auto gi = data::GroupInfo::CreateForValues(
        f->nd.db, *f->nd.db.schema().IndexOf("education"), f->nd.groups);
    SDADCS_CHECK(gi.ok());
    f->gi = std::move(gi).value();
    return f;
  }();
  return *fixture;
}

void BM_CountMatchesOneInterval(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  int age = *f.nd.db.schema().IndexOf("age");
  core::Itemset itemset({core::Item::Interval(age, 30.0, 50.0)});
  for (auto _ : state) {
    auto gc = core::CountMatches(f.nd.db, f.gi, itemset,
                                 f.gi.base_selection());
    benchmark::DoNotOptimize(gc.counts.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.gi.total()));
}
BENCHMARK(BM_CountMatchesOneInterval);

void BM_CountMatchesThreeItems(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  int age = *f.nd.db.schema().IndexOf("age");
  int hours = *f.nd.db.schema().IndexOf("hours_per_week");
  int occ = *f.nd.db.schema().IndexOf("occupation");
  core::Itemset itemset({core::Item::Interval(age, 30.0, 50.0),
                         core::Item::Interval(hours, 35.0, 60.0),
                         core::Item::Categorical(occ, 0)});
  for (auto _ : state) {
    auto gc = core::CountMatches(f.nd.db, f.gi, itemset,
                                 f.gi.base_selection());
    benchmark::DoNotOptimize(gc.counts.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.gi.total()));
}
BENCHMARK(BM_CountMatchesThreeItems);

void BM_MedianInSelection(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  int age = *f.nd.db.schema().IndexOf("age");
  for (auto _ : state) {
    double m = data::MedianInSelection(f.nd.db, age, f.gi.base_selection());
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_MedianInSelection);

void BM_FindCombsTwoAxes(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  int age = *f.nd.db.schema().IndexOf("age");
  int hours = *f.nd.db.schema().IndexOf("hours_per_week");
  core::Space space;
  space.bounds = {{age, 18.0, 90.0}, {hours, 0.0, 99.0}};
  space.rows = f.gi.base_selection();
  std::vector<double> medians = core::PartitionMedians(f.nd.db, space);
  for (auto _ : state) {
    auto cells = core::FindCombs(f.nd.db, space, medians);
    benchmark::DoNotOptimize(cells.data());
  }
}
BENCHMARK(BM_FindCombsTwoAxes);

void BM_ChiSquaredPresence(benchmark::State& state) {
  std::vector<double> counts = {321.0, 1743.0};
  std::vector<double> sizes = {594.0, 8025.0};
  for (auto _ : state) {
    auto res = stats::ChiSquaredPresenceTest(counts, sizes);
    benchmark::DoNotOptimize(res.p_value);
  }
}
BENCHMARK(BM_ChiSquaredPresence);

void BM_ChiSquaredCritical(benchmark::State& state) {
  for (auto _ : state) {
    double c = stats::ChiSquaredCritical(0.05, 1);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_ChiSquaredCritical);

void BM_FisherExactSmall(benchmark::State& state) {
  for (auto _ : state) {
    double p = stats::FisherExactTwoSided(8, 2, 1, 9);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_FisherExactSmall);

void BM_OptimisticEstimate(benchmark::State& state) {
  core::OptimisticInput in;
  in.db_size = 8619;
  in.level = 2;
  in.num_continuous = 2;
  in.counts = {120.0, 900.0};
  in.space_total = 1020.0;
  in.group_sizes = {594.0, 8025.0};
  for (auto _ : state) {
    double oe = core::OptimisticMeasure(in);
    benchmark::DoNotOptimize(oe);
  }
}
BENCHMARK(BM_OptimisticEstimate);

void BM_PruneTableLookup(benchmark::State& state) {
  core::PruneTable table;
  util::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    double lo = rng.Uniform(0.0, 50.0);
    table.Insert(core::Itemset({core::Item::Interval(
        static_cast<int>(rng.NextBelow(8)), lo, lo + 5.0)}));
  }
  core::Itemset probe({core::Item::Interval(3, 10.0, 12.0),
                       core::Item::Interval(6, 20.0, 22.0)});
  for (auto _ : state) {
    bool hit = table.CanPrune(probe);
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_PruneTableLookup);

void BM_SelectionFilter(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  int age = *f.nd.db.schema().IndexOf("age");
  const auto& col = f.nd.db.continuous(age);
  for (auto _ : state) {
    data::Selection sel = f.gi.base_selection().Filter(
        [&](uint32_t r) { return col.value(r) > 40.0; });
    benchmark::DoNotOptimize(sel.rows().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.gi.total()));
}
BENCHMARK(BM_SelectionFilter);

void BM_StreamAppend(benchmark::State& state) {
  stream::StreamConfig cfg;
  cfg.window_rows = 4000;
  cfg.min_rows = 1u << 30;  // never mine: isolate the append path
  stream::WindowMiner miner(
      cfg,
      {{"g", data::AttributeType::kCategorical},
       {"x", data::AttributeType::kContinuous}},
      "g");
  util::Rng rng(123);
  for (auto _ : state) {
    auto st = miner.Append({stream::StreamValue::Category("a"),
                            stream::StreamValue::Number(rng.NextDouble())});
    benchmark::DoNotOptimize(st.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamAppend);

void BM_SplitAndCountTwoAxes(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  int age = *f.nd.db.schema().IndexOf("age");
  int hours = *f.nd.db.schema().IndexOf("hours_per_week");
  core::Space space;
  space.bounds = {{age, 18.0, 90.0}, {hours, 0.0, 99.0}};
  space.rows = f.gi.base_selection();
  std::vector<double> medians = core::PartitionMedians(f.nd.db, space);
  core::SplitScratch scratch;
  for (auto _ : state) {
    core::SplitResult split = core::SplitAndCount(
        f.nd.db, f.gi, space, medians, &scratch, data::SimdByDefault());
    benchmark::DoNotOptimize(split.cells.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(space.rows.size()));
}
BENCHMARK(BM_SplitAndCountTwoAxes);

// One serial mine with the scan kernels pinned: the engine session's
// loop, with the context's simd flag set by hand instead of by the host.
util::StatusOr<core::MiningResult> MineWithKernels(
    const data::Dataset& db, const core::MinerConfig& cfg,
    const core::MineRequest& req, bool simd) {
  auto session = engine::MiningSession::Begin(db, cfg, req);
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

// Cold-mine kernels: end-to-end mine of a scaling dataset on the scalar
// kernels (the differential oracle) and the AVX2 kernels, plus the
// anytime time-to-first-result fraction and the run's pruning counters.
// Both paths must return the same answer.
void AddColdMineCases(bench::BenchJson* json, bool smoke) {
  synth::ScalingOptions opt;
  opt.rows = smoke ? 8000 : 60000;
  opt.continuous_features = 6;
  opt.categorical_features = 2;
  synth::NamedDataset nd = synth::MakeScalingDataset(opt);
  auto attr = nd.db.schema().IndexOf(nd.group_attr);
  SDADCS_CHECK(attr.ok());
  auto gi_or = data::GroupInfo::CreateForValues(nd.db, *attr, nd.groups);
  SDADCS_CHECK(gi_or.ok());
  const data::GroupInfo& gi = *gi_or;

  core::MinerConfig cfg;
  cfg.max_depth = 2;
  cfg.top_k = 10;
  core::MineRequest req;
  req.groups = &gi;

  // Best-of-3 wall times: a cold mine is short enough that scheduler
  // noise can swamp a single run.
  constexpr int kReps = 3;

  util::StatusOr<core::MiningResult> scalar = util::Status::Internal("unset");
  double scalar_sec = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    util::WallTimer timer;
    scalar = MineWithKernels(nd.db, cfg, req, /*simd=*/false);
    scalar_sec = std::min(scalar_sec, timer.Seconds());
    SDADCS_CHECK(scalar.ok());
  }

  util::StatusOr<core::MiningResult> avx2 = util::Status::Internal("unset");
  double avx2_sec = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    util::WallTimer timer;
    avx2 = MineWithKernels(nd.db, cfg, req, /*simd=*/true);
    avx2_sec = std::min(avx2_sec, timer.Seconds());
    SDADCS_CHECK(avx2.ok());
  }

  SDADCS_CHECK(avx2->contrasts.size() == scalar->contrasts.size());
  for (size_t i = 0; i < avx2->contrasts.size(); ++i) {
    SDADCS_CHECK(avx2->contrasts[i].itemset.Key() ==
                 scalar->contrasts[i].itemset.Key());
    SDADCS_CHECK(avx2->contrasts[i].measure == scalar->contrasts[i].measure);
  }

  // Anytime streaming on the host's kernels.
  core::MineRequest any_req;
  any_req.groups = &gi;
  any_req.run_control.set_anytime(true);
  util::WallTimer any_timer;
  double first_partial_sec = -1.0;
  any_req.run_control.set_progress_callback(
      [&](const util::RunProgress& p) {
        if (p.improved && first_partial_sec < 0.0) {
          first_partial_sec = any_timer.Seconds();
        }
      });
  auto any = core::Miner(cfg).Mine(nd.db, any_req);
  double any_sec = any_timer.Seconds();
  SDADCS_CHECK(any.ok());
  SDADCS_CHECK(first_partial_sec >= 0.0);
  double ttfr_fraction =
      any_sec > 0.0 ? first_partial_sec / any_sec : 0.0;
  double avx2_speedup = avx2_sec > 0.0 ? scalar_sec / avx2_sec : 0.0;

  std::printf("\n== cold mine: scalar vs avx2 kernel (%s rows) ==\n",
              std::to_string(nd.db.num_rows()).c_str());
  std::printf("scalar %.4fs | avx2 %.4fs | speedup %.2fx\n", scalar_sec,
              avx2_sec, avx2_speedup);
  std::printf("anytime: first result at %.4fs of %.4fs (%.1f%%)\n",
              first_partial_sec, any_sec, 100.0 * ttfr_fraction);
  std::printf("counters: partitions_evaluated %llu, pruned_oe_measure %llu, "
              "pruned_oe_chi2 %llu\n",
              static_cast<unsigned long long>(
                  scalar->counters.partitions_evaluated),
              static_cast<unsigned long long>(
                  scalar->counters.pruned_oe_measure),
              static_cast<unsigned long long>(
                  scalar->counters.pruned_oe_chi2));

  json->BeginCase("cold_mine_scaling");
  json->SetCase("rows", static_cast<uint64_t>(nd.db.num_rows()));
  json->SetCase("scalar_wall_seconds", scalar_sec);
  json->SetCase("avx2_wall_seconds", avx2_sec);
  json->SetCase("avx2_speedup", avx2_speedup);
  json->SetCase("anytime_first_result_seconds", first_partial_sec);
  json->SetCase("anytime_total_seconds", any_sec);
  json->SetCase("anytime_ttfr_fraction", ttfr_fraction);
  json->SetCase("partitions", scalar->counters.partitions_evaluated);
  json->SetCase("pruned_oe", scalar->counters.pruned_oe_measure);
}

// Median, min and max of one point's wall times.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread SpreadOf(std::vector<double> secs) {
  std::sort(secs.begin(), secs.end());
  const size_t n = secs.size();
  const double median =
      n % 2 == 1 ? secs[n / 2] : 0.5 * (secs[n / 2 - 1] + secs[n / 2]);
  return {median, secs.front(), secs.back()};
}

// CSV ingest: data::ReadCsvString over synth scaling tables written
// once by WriteCsvString — perfbench's input shape (20000 rows: the
// group column, 6 continuous and 2 categorical features) and, in full
// mode, 200000 rows x 45 columns (40 continuous, 4 categorical). A point
// reports the median, min and max wall seconds over the reps, MB/s at
// the median, the rows and the dataset's MemoryUsage().
void AddCsvIngestCases(bench::BenchJson* json, bool smoke) {
  struct Shape {
    size_t rows;
    int continuous;
    int categorical;
    int reps;
  };
  std::vector<Shape> shapes = {{20000, 6, 2, smoke ? 5 : 21}};
  if (!smoke) shapes.push_back({200000, 40, 4, 7});

  std::printf("\n== CSV ingest: ReadCsvString (median [min, max]) ==\n");
  for (const Shape& shape : shapes) {
    synth::ScalingOptions opt;
    opt.rows = shape.rows;
    opt.continuous_features = shape.continuous;
    opt.categorical_features = shape.categorical;
    const synth::NamedDataset nd = synth::MakeScalingDataset(opt);
    const std::string text = data::WriteCsvString(nd.db);
    std::vector<double> secs;
    size_t memory = 0;
    size_t rows = 0;
    for (int rep = 0; rep < shape.reps; ++rep) {
      util::WallTimer timer;
      util::StatusOr<data::Dataset> db = data::ReadCsvString(text);
      secs.push_back(timer.Seconds());
      SDADCS_CHECK(db.ok());
      SDADCS_CHECK(db->num_attributes() == nd.db.num_attributes());
      memory = db->MemoryUsage();
      rows = db->num_rows();
    }
    const Spread spread = SpreadOf(secs);
    const double mb = static_cast<double>(text.size()) / 1e6;
    const double mb_per_sec = spread.median > 0.0 ? mb / spread.median : 0.0;
    const std::string name = "csv_ingest_" + std::to_string(rows) + "x" +
                             std::to_string(nd.db.num_attributes());
    std::printf("%s: %.4fs [%.4f, %.4f] | %.1f MB at %.0f MB/s | "
                "MemoryUsage %zu bytes\n",
                name.c_str(), spread.median, spread.min, spread.max, mb,
                mb_per_sec, memory);
    json->BeginCase(name);
    json->SetCase("rows", static_cast<uint64_t>(rows));
    json->SetCase("columns", static_cast<uint64_t>(nd.db.num_attributes()));
    json->SetCase("reps", static_cast<uint64_t>(shape.reps));
    json->SetCase("text_bytes", static_cast<uint64_t>(text.size()));
    json->SetCase("median_seconds", spread.median);
    json->SetCase("min_seconds", spread.min);
    json->SetCase("max_seconds", spread.max);
    json->SetCase("mb_per_sec", mb_per_sec);
    json->SetCase("memory_usage_bytes", static_cast<uint64_t>(memory));
  }
}

// Root split: a perfbench-shaped root (the base selection of 20000 rows
// of 6 continuous and 2 categorical features, two groups) cut on two
// continuous attributes. SplitAndCount scans the root's rows at its
// memoized cuts, as every root split did before the root-axis memo;
// SplitRoot counts the cells from the memoized bits, alone and with
// every cell's rows built (a mine builds only the rows of the cells
// that recurse). A point reports each one's median, min and max wall
// seconds over the reps, and checks that the splits agree.
void AddRootSplitCases(bench::BenchJson* json, bool smoke) {
  synth::ScalingOptions opt;
  opt.rows = 20000;
  opt.continuous_features = 6;
  opt.categorical_features = 2;
  const synth::NamedDataset nd = synth::MakeScalingDataset(opt);
  auto attr = nd.db.schema().IndexOf(nd.group_attr);
  SDADCS_CHECK(attr.ok());
  auto gi = data::GroupInfo::CreateForValues(nd.db, *attr, nd.groups);
  SDADCS_CHECK(gi.ok());
  const bool simd = data::SimdByDefault();
  core::Space root;
  root.rows = gi->base_selection();
  core::RootBits bits;
  bits.groups = std::make_shared<const std::vector<std::vector<uint64_t>>>(
      core::GroupBits(*gi, root.rows));
  core::SplitScratch scratch;
  std::vector<double> cuts;
  for (const char* name : {"feat_c000", "feat_c001"}) {
    auto idx = nd.db.schema().IndexOf(name);
    SDADCS_CHECK(idx.ok());
    const core::RootBounds rb =
        core::ComputeRootBounds(nd.db, *idx, gi->base_selection());
    root.bounds.push_back({*idx, rb.lo, rb.hi});
    auto axis = std::make_shared<const core::RootAxis>(core::CutRootAxis(
        nd.db, root.rows, root.bounds.back(), core::SplitKind::kMedian,
        &scratch, simd));
    cuts.push_back(axis->cut);
    bits.axes[*idx] = std::move(axis);
  }

  const int reps = smoke ? 101 : 1001;
  std::vector<double> scan_secs;
  std::vector<double> bits_secs;
  std::vector<double> rows_secs;
  for (int rep = 0; rep < reps; ++rep) {
    util::WallTimer scan_timer;
    core::SplitResult scanned =
        core::SplitAndCount(nd.db, *gi, root, cuts, &scratch, simd);
    benchmark::DoNotOptimize(scanned.cells.data());
    scan_secs.push_back(scan_timer.Seconds());

    util::WallTimer bits_timer;
    core::SplitResult split = core::SplitRoot(root, bits, &scratch, simd);
    benchmark::DoNotOptimize(split.counts.data());
    bits_secs.push_back(bits_timer.Seconds());

    util::WallTimer rows_timer;
    split = core::SplitRoot(root, bits, &scratch, simd);
    for (size_t c = 0; c < split.cells.size(); ++c) {
      split.cells[c].rows = core::RootCellRows(root, bits, split, c);
    }
    benchmark::DoNotOptimize(split.cells.data());
    rows_secs.push_back(rows_timer.Seconds());

    if (rep == 0) {
      SDADCS_CHECK(split.cells.size() == 4);
      for (size_t c = 0; c < split.cells.size(); ++c) {
        SDADCS_CHECK(split.sizes[c] == scanned.sizes[c]);
        SDADCS_CHECK(split.counts[c].counts == scanned.counts[c].counts);
        SDADCS_CHECK(split.cells[c].rows.rows() ==
                     scanned.cells[c].rows.rows());
      }
    }
  }
  const Spread scan = SpreadOf(scan_secs);
  const Spread counted = SpreadOf(bits_secs);
  const Spread built = SpreadOf(rows_secs);
  const std::string name = "root_split_" +
                           std::to_string(root.rows.size()) + "x" +
                           std::to_string(root.bounds.size());
  std::printf("\n== root split: SplitAndCount vs SplitRoot (median [min, "
              "max] us) ==\n%s: scan %.1f [%.1f, %.1f] | bits %.1f "
              "[%.1f, %.1f] | bits + all rows %.1f [%.1f, %.1f]\n",
              name.c_str(), scan.median * 1e6, scan.min * 1e6,
              scan.max * 1e6, counted.median * 1e6, counted.min * 1e6,
              counted.max * 1e6, built.median * 1e6, built.min * 1e6,
              built.max * 1e6);
  json->BeginCase(name);
  json->SetCase("rows", static_cast<uint64_t>(root.rows.size()));
  json->SetCase("axes", static_cast<uint64_t>(root.bounds.size()));
  json->SetCase("reps", static_cast<uint64_t>(reps));
  json->SetCase("simd", std::string(simd ? "avx2" : "scalar"));
  json->SetCase("scan_median_seconds", scan.median);
  json->SetCase("scan_min_seconds", scan.min);
  json->SetCase("scan_max_seconds", scan.max);
  json->SetCase("bits_median_seconds", counted.median);
  json->SetCase("bits_min_seconds", counted.min);
  json->SetCase("bits_max_seconds", counted.max);
  json->SetCase("bits_all_rows_median_seconds", built.median);
  json->SetCase("bits_all_rows_min_seconds", built.min);
  json->SetCase("bits_all_rows_max_seconds", built.max);
}

// Sharded cold mine, swept over rows x shards: the one-shard miner
// against the same miner on teams of 2 and 4, at 20k and 60k rows, so
// the crossover where the team starts to pay shows on the scoreboard.
// Each rep mines serial and then every shard count back to back, so a
// host slowdown reaches all of them alike; a point reports the median
// and min/max over the reps. Sharding's contract is byte-identity, so
// beyond the wall times this asserts every sharded pattern list matches
// serial exactly.
void AddShardedColdMineCases(bench::BenchJson* json, bool smoke) {
  const std::vector<size_t> row_counts =
      smoke ? std::vector<size_t>{8000} : std::vector<size_t>{20000, 60000};
  const std::vector<size_t> shard_counts = {2, 4};
  const int reps = smoke ? 5 : 9;
  core::MinerConfig cfg;
  cfg.max_depth = 2;
  cfg.top_k = 10;

  std::printf("\n== cold mine: serial vs sharded, rows x shards "
              "(median [min, max] of %d) ==\n",
              reps);
  for (size_t rows : row_counts) {
    synth::ScalingOptions opt;
    opt.rows = rows;
    opt.continuous_features = 6;
    opt.categorical_features = 2;
    synth::NamedDataset nd = synth::MakeScalingDataset(opt);
    auto attr = nd.db.schema().IndexOf(nd.group_attr);
    SDADCS_CHECK(attr.ok());
    auto gi_or = data::GroupInfo::CreateForValues(nd.db, *attr, nd.groups);
    SDADCS_CHECK(gi_or.ok());
    core::MineRequest req;
    req.groups = &*gi_or;

    auto timed_mine = [&](size_t shards, std::vector<double>* secs) {
      util::WallTimer timer;
      util::StatusOr<core::MiningResult> result =
          core::Miner(cfg, shards).Mine(nd.db, req);
      secs->push_back(timer.Seconds());
      SDADCS_CHECK(result.ok());
      return std::move(*result);
    };
    std::vector<double> serial_secs;
    std::vector<std::vector<double>> sharded_secs(shard_counts.size());
    core::MiningResult serial;
    for (int rep = 0; rep < reps; ++rep) {
      serial = timed_mine(1, &serial_secs);
      for (size_t s = 0; s < shard_counts.size(); ++s) {
        core::MiningResult sharded =
            timed_mine(shard_counts[s], &sharded_secs[s]);
        SDADCS_CHECK(sharded.contrasts.size() == serial.contrasts.size());
        for (size_t i = 0; i < sharded.contrasts.size(); ++i) {
          SDADCS_CHECK(sharded.contrasts[i].itemset.Key() ==
                       serial.contrasts[i].itemset.Key());
          SDADCS_CHECK(sharded.contrasts[i].counts ==
                       serial.contrasts[i].counts);
          SDADCS_CHECK(sharded.contrasts[i].measure ==
                       serial.contrasts[i].measure);
        }
      }
    }

    const Spread base = SpreadOf(serial_secs);
    for (size_t s = 0; s < shard_counts.size(); ++s) {
      const Spread sharded = SpreadOf(sharded_secs[s]);
      const double speedup =
          sharded.median > 0.0 ? base.median / sharded.median : 0.0;
      std::printf("%6zu rows, %zu shards: serial %.4fs [%.4f, %.4f] | "
                  "sharded %.4fs [%.4f, %.4f] | speedup %.2fx "
                  "(identical patterns)\n",
                  rows, shard_counts[s], base.median, base.min, base.max,
                  sharded.median, sharded.min, sharded.max, speedup);

      json->BeginCase("cold_mine_sharded_" + std::to_string(rows) + "x" +
                      std::to_string(shard_counts[s]));
      json->SetCase("rows", static_cast<uint64_t>(nd.db.num_rows()));
      json->SetCase("shards", static_cast<uint64_t>(shard_counts[s]));
      json->SetCase("reps", static_cast<uint64_t>(reps));
      json->SetCase("serial_median_seconds", base.median);
      json->SetCase("serial_min_seconds", base.min);
      json->SetCase("serial_max_seconds", base.max);
      json->SetCase("sharded_median_seconds", sharded.median);
      json->SetCase("sharded_min_seconds", sharded.min);
      json->SetCase("sharded_max_seconds", sharded.max);
      json->SetCase("sharded_speedup", speedup);
      json->SetCase("patterns",
                    static_cast<uint64_t>(serial.contrasts.size()));
    }
  }
}

// Cold mine at the paper's depth 5: a serial mine of the small synthetic
// ionosphere and breast data with the Section 5 settings. The depth-2
// cases above are scan-bound; at depth 5 most of a mine is lattice
// bookkeeping (prune-table lookups and the per-run memos), so this case
// is where that cost shows. A point reports the median and min/max over
// the reps.
void AddDepth5ColdMineCases(bench::BenchJson* json, bool smoke) {
  const int reps = smoke ? 3 : 9;
  const core::MinerConfig cfg = bench::PaperConfig(/*depth=*/5);
  std::printf("\n== cold mine at depth 5, serial (median [min, max] of %d) "
              "==\n",
              reps);
  for (const char* name : {"ionosphere", "breast"}) {
    bench::Bench b = bench::Load(name);
    core::MineRequest req;
    req.groups = &b.gi;
    std::vector<double> secs;
    core::MiningResult result;
    for (int rep = 0; rep < reps; ++rep) {
      util::WallTimer timer;
      util::StatusOr<core::MiningResult> mined =
          core::Miner(cfg).Mine(b.nd.db, req);
      secs.push_back(timer.Seconds());
      SDADCS_CHECK(mined.ok());
      result = std::move(*mined);
    }
    const Spread spread = SpreadOf(secs);
    std::printf("%-11s %5zu rows: %.4fs [%.4f, %.4f] | %llu partitions, "
                "%zu patterns\n",
                name, b.nd.db.num_rows(), spread.median, spread.min,
                spread.max,
                static_cast<unsigned long long>(
                    result.counters.partitions_evaluated),
                result.contrasts.size());

    json->BeginCase(std::string("cold_mine_depth5_") + name);
    json->SetCase("rows", static_cast<uint64_t>(b.nd.db.num_rows()));
    json->SetCase("reps", static_cast<uint64_t>(reps));
    json->SetCase("median_seconds", spread.median);
    json->SetCase("min_seconds", spread.min);
    json->SetCase("max_seconds", spread.max);
    json->SetCase("partitions", result.counters.partitions_evaluated);
    json->SetCase("patterns", static_cast<uint64_t>(result.contrasts.size()));
  }
}

// Served cold mine: the same end-to-end mine with and without a
// PreparedDataset attached. Every serve::Server mine attaches its
// dataset's bundle, so this is the served miss path; the other
// cold_mine_* cases run bare. The bundle is warmed first (a served miss
// finds its group artifact already built), and both runs must return
// identical patterns.
void AddServedColdMineCase(bench::BenchJson* json, bool smoke) {
  synth::ScalingOptions opt;
  opt.rows = smoke ? 8000 : 60000;
  opt.continuous_features = 6;
  opt.categorical_features = 2;
  synth::NamedDataset nd = synth::MakeScalingDataset(opt);

  core::MinerConfig cfg;
  cfg.max_depth = 2;
  cfg.top_k = 10;
  core::MineRequest bare;
  bare.group_attr = nd.group_attr;
  bare.group_values = nd.groups;
  data::PreparedDataset prepared(&nd.db);
  core::MineRequest served = bare;
  served.prepared = &prepared;
  SDADCS_CHECK(core::Miner(cfg).Mine(nd.db, served).ok());
  constexpr int kReps = 3;

  auto best_of = [&](const core::MineRequest& req,
                     util::StatusOr<core::MiningResult>* result) {
    double best = 1e30;
    for (int rep = 0; rep < kReps; ++rep) {
      util::WallTimer timer;
      *result = core::Miner(cfg).Mine(nd.db, req);
      best = std::min(best, timer.Seconds());
      SDADCS_CHECK(result->ok());
    }
    return best;
  };
  util::StatusOr<core::MiningResult> bare_result =
      util::Status::Internal("unset");
  util::StatusOr<core::MiningResult> served_result =
      util::Status::Internal("unset");
  const double bare_sec = best_of(bare, &bare_result);
  const double served_sec = best_of(served, &served_result);

  SDADCS_CHECK(served_result->contrasts.size() ==
               bare_result->contrasts.size());
  for (size_t i = 0; i < served_result->contrasts.size(); ++i) {
    const core::ContrastPattern& a = served_result->contrasts[i];
    const core::ContrastPattern& b = bare_result->contrasts[i];
    SDADCS_CHECK(a.itemset.Key() == b.itemset.Key());
    SDADCS_CHECK(a.counts == b.counts);
    SDADCS_CHECK(a.measure == b.measure);
  }

  const double ratio = bare_sec > 0.0 ? served_sec / bare_sec : 0.0;
  std::printf("\n== cold mine: bare vs prepared bundle (%s rows) ==\n",
              std::to_string(nd.db.num_rows()).c_str());
  std::printf("bare %.4fs | bundle %.4fs | bundle/bare %.2fx "
              "(identical patterns)\n",
              bare_sec, served_sec, ratio);

  json->BeginCase("cold_mine_served");
  json->SetCase("rows", static_cast<uint64_t>(nd.db.num_rows()));
  json->SetCase("bare_wall_seconds", bare_sec);
  json->SetCase("bundle_wall_seconds", served_sec);
  json->SetCase("bundle_over_bare", ratio);
  json->SetCase("patterns",
                static_cast<uint64_t>(bare_result->contrasts.size()));
}

// Chunked cold mine: the same end-to-end mine on the three storage
// configurations — dense resident columns, resident columns re-sliced
// into 4K-row chunks, and the mmap-backed paged backend with a byte cap
// at a quarter of the dense column footprint. Chunking is a storage
// knob, never a semantic one, so beyond the wall times this asserts
// all three pattern lists match exactly; the paged case also reports
// the chunk load/eviction traffic its cap forced.
void AddChunkedColdMineCase(bench::BenchJson* json, bool smoke) {
  synth::ScalingOptions opt;
  opt.rows = smoke ? 8000 : 60000;
  opt.continuous_features = 6;
  opt.categorical_features = 2;
  synth::NamedDataset nd = synth::MakeScalingDataset(opt);
  auto attr = nd.db.schema().IndexOf(nd.group_attr);
  SDADCS_CHECK(attr.ok());
  auto gi_or = data::GroupInfo::CreateForValues(nd.db, *attr, nd.groups);
  SDADCS_CHECK(gi_or.ok());
  const data::GroupInfo& gi = *gi_or;

  core::MinerConfig cfg;
  cfg.max_depth = 2;
  cfg.top_k = 10;
  core::MineRequest req;
  req.groups = &gi;
  constexpr size_t kChunkRows = 4096;
  constexpr int kReps = 3;

  util::StatusOr<core::MiningResult> dense = util::Status::Internal("unset");
  double dense_sec = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    util::WallTimer timer;
    dense = core::Miner(cfg).Mine(nd.db, req);
    dense_sec = std::min(dense_sec, timer.Seconds());
    SDADCS_CHECK(dense.ok());
  }

  // Resident backend, re-sliced: the span loop's overhead in isolation.
  nd.db.SetChunkRows(kChunkRows);
  util::StatusOr<core::MiningResult> chunked =
      util::Status::Internal("unset");
  double chunked_sec = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    util::WallTimer timer;
    chunked = core::Miner(cfg).Mine(nd.db, req);
    chunked_sec = std::min(chunked_sec, timer.Seconds());
    SDADCS_CHECK(chunked.ok());
  }
  nd.db.SetChunkRows(0);

  // Paged backend: spill, reopen mmap-backed, cap residency at a
  // quarter of the dense footprint so the mine must page.
  const std::string spill_path = "bench_micro_chunked.spill";
  SDADCS_CHECK(data::WriteSpill(nd.db, spill_path).ok());
  data::SpillOptions sopt;
  sopt.chunk_rows = kChunkRows;
  sopt.max_resident_bytes = nd.db.MemoryUsage() / 4;
  auto paged_db = data::OpenSpill(spill_path, sopt);
  SDADCS_CHECK(paged_db.ok());
  std::remove(spill_path.c_str());
  auto paged_gi =
      data::GroupInfo::CreateForValues(*paged_db, *attr, nd.groups);
  SDADCS_CHECK(paged_gi.ok());
  core::MineRequest paged_req;
  paged_req.groups = &*paged_gi;
  util::StatusOr<core::MiningResult> paged = util::Status::Internal("unset");
  double paged_sec = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    util::WallTimer timer;
    paged = core::Miner(cfg).Mine(*paged_db, paged_req);
    paged_sec = std::min(paged_sec, timer.Seconds());
    SDADCS_CHECK(paged.ok());
  }
  data::ChunkStats cs = paged_db->chunk_store()->stats();
  SDADCS_CHECK(cs.loads > 0);

  for (const auto* result : {&*chunked, &*paged}) {
    SDADCS_CHECK(result->contrasts.size() == dense->contrasts.size());
    for (size_t i = 0; i < result->contrasts.size(); ++i) {
      SDADCS_CHECK(result->contrasts[i].itemset.Key() ==
                   dense->contrasts[i].itemset.Key());
      SDADCS_CHECK(result->contrasts[i].measure ==
                   dense->contrasts[i].measure);
    }
  }

  const double chunk_ratio = dense_sec > 0.0 ? chunked_sec / dense_sec : 0.0;
  const double paged_ratio = dense_sec > 0.0 ? paged_sec / dense_sec : 0.0;
  std::printf("\n== cold mine: dense vs chunked vs mmap-backed (%s rows, "
              "%zu-row chunks) ==\n",
              std::to_string(nd.db.num_rows()).c_str(), kChunkRows);
  std::printf("dense %.4fs | chunked %.4fs (%.2fx) | paged %.4fs (%.2fx, "
              "cap %zuB, %llu loads, %llu evictions; identical patterns)\n",
              dense_sec, chunked_sec, chunk_ratio, paged_sec, paged_ratio,
              cs.max_resident_bytes,
              static_cast<unsigned long long>(cs.loads),
              static_cast<unsigned long long>(cs.evictions));

  json->BeginCase("cold_mine_chunked");
  json->SetCase("rows", static_cast<uint64_t>(nd.db.num_rows()));
  json->SetCase("chunk_rows", static_cast<uint64_t>(kChunkRows));
  json->SetCase("dense_wall_seconds", dense_sec);
  json->SetCase("chunked_wall_seconds", chunked_sec);
  json->SetCase("paged_wall_seconds", paged_sec);
  json->SetCase("chunked_over_dense", chunk_ratio);
  json->SetCase("paged_over_dense", paged_ratio);
  json->SetCase("paged_cap_bytes",
                static_cast<uint64_t>(cs.max_resident_bytes));
  json->SetCase("paged_peak_resident_bytes",
                static_cast<uint64_t>(cs.peak_resident_bytes));
  json->SetCase("paged_chunk_loads", cs.loads);
  json->SetCase("paged_chunk_evictions", cs.evictions);
}

// Fused-vs-naive split+count comparison on the Section 6 scaling
// dataset. The naive reference is exactly the seed hot path: FindCombs
// (per-cell Selection::Filter) followed by per-cell CountGroups. Writes
// wall time, throughput, peak cell count and speedup per axis count to
// BENCH_micro.json.
void RunKernelComparison(bool smoke) {
  synth::ScalingOptions opt;
  opt.rows = smoke ? 20000 : 100000;
  opt.continuous_features = 8;
  opt.categorical_features = 2;
  synth::NamedDataset nd = synth::MakeScalingDataset(opt);
  auto attr = nd.db.schema().IndexOf(nd.group_attr);
  SDADCS_CHECK(attr.ok());
  auto gi_or = data::GroupInfo::CreateForValues(nd.db, *attr, nd.groups);
  SDADCS_CHECK(gi_or.ok());
  const data::GroupInfo& gi = *gi_or;
  const int reps = smoke ? 3 : 20;

  bench::BenchJson json("micro");
  json.Set("dataset", nd.name);
  json.Set("rows", static_cast<uint64_t>(nd.db.num_rows()));
  json.Set("repetitions", static_cast<uint64_t>(reps));
  json.Set("mode", std::string(smoke ? "smoke" : "full"));

  std::printf("\n== split+count kernel: fused vs naive (%s rows) ==\n",
              std::to_string(nd.db.num_rows()).c_str());
  std::printf("%6s | %12s %12s %12s | %10s | %8s %8s\n", "axes",
              "naive(s)", "fused(s)", "vector(s)", "rows/s", "fuse_x",
              "vec_x");

  double min_speedup = std::numeric_limits<double>::infinity();
  for (int axes : {2, 4, 6}) {
    core::Space space;
    for (int a = 0; a < axes; ++a) {
      std::string name = "feat_c00" + std::to_string(a);
      auto idx = nd.db.schema().IndexOf(name);
      SDADCS_CHECK(idx.ok());
      core::RootBounds rb =
          core::ComputeRootBounds(nd.db, *idx, gi.base_selection());
      space.bounds.push_back({*idx, rb.lo, rb.hi});
    }
    space.rows = gi.base_selection();
    std::vector<double> cuts = core::PartitionMedians(nd.db, space);

    // Naive reference: the seed's per-cell filter + count.
    util::WallTimer naive_timer;
    size_t peak_cells = 0;
    std::vector<core::GroupCounts> naive_counts;
    for (int rep = 0; rep < reps; ++rep) {
      std::vector<core::Space> cells = core::FindCombs(nd.db, space, cuts);
      peak_cells = std::max(peak_cells, cells.size());
      naive_counts.clear();
      for (const core::Space& cell : cells) {
        naive_counts.push_back(core::CountGroups(gi, cell.rows));
      }
      benchmark::DoNotOptimize(naive_counts.data());
    }
    double naive_sec = naive_timer.Seconds();

    // Fused kernel, pinned to the scalar pass so "speedup" isolates the
    // fusion win from the vectorization win measured next.
    core::SplitScratch scratch;
    util::WallTimer fused_timer;
    core::SplitResult split;
    for (int rep = 0; rep < reps; ++rep) {
      split = core::SplitAndCount(nd.db, gi, space, cuts, &scratch,
                                  /*simd=*/false);
      benchmark::DoNotOptimize(split.cells.data());
    }
    double fused_sec = fused_timer.Seconds();

    // Vectorized pass of the same fused kernel (scalar on hosts without
    // AVX2, where vector_speedup will print ~1.0x).
    core::SplitScratch vscratch;
    util::WallTimer vector_timer;
    core::SplitResult vsplit;
    for (int rep = 0; rep < reps; ++rep) {
      vsplit = core::SplitAndCount(nd.db, gi, space, cuts, &vscratch,
                                   /*simd=*/true);
      benchmark::DoNotOptimize(vsplit.cells.data());
    }
    double vector_sec = vector_timer.Seconds();

    // Sanity: all kernels must agree before the numbers mean anything.
    SDADCS_CHECK(split.counts.size() == naive_counts.size());
    SDADCS_CHECK(vsplit.counts.size() == naive_counts.size());
    for (size_t c = 0; c < split.counts.size(); ++c) {
      SDADCS_CHECK(split.counts[c].counts == naive_counts[c].counts);
      SDADCS_CHECK(vsplit.counts[c].counts == naive_counts[c].counts);
      SDADCS_CHECK(vsplit.cells[c].rows.rows() ==
                   split.cells[c].rows.rows());
      SDADCS_CHECK(split.cells[c].rows.rows() ==
                   core::FindCombs(nd.db, space, cuts)[c].rows.rows());
    }

    const double total_rows =
        static_cast<double>(space.rows.size()) * reps;
    double rows_per_sec = vector_sec > 0.0 ? total_rows / vector_sec : 0.0;
    double speedup = fused_sec > 0.0 ? naive_sec / fused_sec : 0.0;
    double vector_speedup =
        vector_sec > 0.0 ? fused_sec / vector_sec : 0.0;
    min_speedup = std::min(min_speedup, speedup);

    std::printf("%6d | %12.4f %12.4f %12.4f | %10.3g | %7.2fx %7.2fx\n",
                axes, naive_sec, fused_sec, vector_sec, rows_per_sec,
                speedup, vector_speedup);

    json.BeginCase("split_count_axes_" + std::to_string(axes));
    json.SetCase("axes", static_cast<uint64_t>(axes));
    json.SetCase("naive_wall_seconds", naive_sec);
    json.SetCase("fused_wall_seconds", fused_sec);
    json.SetCase("vector_wall_seconds", vector_sec);
    json.SetCase("rows_per_sec", rows_per_sec);
    json.SetCase("peak_cells", static_cast<uint64_t>(peak_cells));
    json.SetCase("speedup", speedup);
    json.SetCase("vector_speedup", vector_speedup);
  }
  json.Set("min_speedup", min_speedup);
  AddColdMineCases(&json, smoke);
  AddShardedColdMineCases(&json, smoke);
  AddDepth5ColdMineCases(&json, smoke);
  AddChunkedColdMineCase(&json, smoke);
  AddServedColdMineCase(&json, smoke);
  AddCsvIngestCases(&json, smoke);
  AddRootSplitCases(&json, smoke);
  json.Write();
}

}  // namespace
}  // namespace sdadcs

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<char*> bench_args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  sdadcs::RunKernelComparison(smoke);
  if (smoke) return 0;
  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             bench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
