// Section 6 scaling experiment: parallel mining on wide, mostly-noise
// data. The paper ran 100k/500k/1M rows with 120 features on a cluster
// (18/106/225 minutes); this single-machine reproduction scales the rows
// down (20k/50k/100k with 40 features) and reports the two shapes the
// section claims: roughly linear growth in data size, and useful speedup
// from per-level parallelism.
//
// Each row count is mined serially and on the parallel engine at widths
// 1, 2 and 4, kReps times in rotation (so a host slowdown reaches every
// engine alike) after one untimed warm-up mine. A point reports the
// median and min/max wall time over the reps. The parallel engine's
// contract is byte-identity, so every mine must also render exactly as
// the serial one, with equal counters. Writes BENCH_scaling_parallel.json.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/miner.h"
#include "engine/registry.h"
#include "synth/scaling.h"
#include "util/logging.h"
#include "util/timer.h"

namespace sdadcs::bench {
namespace {

constexpr int kReps = 5;
constexpr size_t kWidths[] = {1, 2, 4};

// Byte-exact rendering: itemset key, exact counts and full-precision
// statistics, in rank order.
std::string Render(const core::MiningResult& result) {
  std::string out;
  char buf[512];
  for (const core::ContrastPattern& p : result.contrasts) {
    out += p.itemset.Key();
    for (double c : p.counts) {
      std::snprintf(buf, sizeof(buf), " %.17g", c);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  " | diff=%.17g measure=%.17g chi2=%.17g p=%.17g\n", p.diff,
                  p.measure, p.chi2, p.p_value);
    out += buf;
  }
  return out;
}

bool SameCounters(const core::MiningCounters& a,
                  const core::MiningCounters& b) {
  return a.partitions_evaluated == b.partitions_evaluated &&
         a.sdad_calls == b.sdad_calls && a.pruned_lookup == b.pruned_lookup &&
         a.pruned_min_support == b.pruned_min_support &&
         a.pruned_low_expected == b.pruned_low_expected &&
         a.pruned_redundant == b.pruned_redundant &&
         a.pruned_pure == b.pruned_pure &&
         a.pruned_oe_measure == b.pruned_oe_measure &&
         a.pruned_oe_chi2 == b.pruned_oe_chi2 &&
         a.unproductive == b.unproductive &&
         a.not_independently_productive == b.not_independently_productive &&
         a.merges == b.merges && a.chi2_tests == b.chi2_tests &&
         a.truncated_candidates == b.truncated_candidates &&
         a.abandoned_candidates == b.abandoned_candidates;
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

// One mine of `b` on `spec` through the engine table, timed into `secs`.
core::MiningResult TimedMine(const Bench& b, const core::MinerConfig& cfg,
                             const engine::EngineSpec& spec, size_t width,
                             std::vector<double>* secs) {
  engine::EngineOptions options;
  options.shard_count = width;
  core::MineRequest request;
  request.groups = &b.gi;
  util::WallTimer timer;
  auto result = engine::Mine(spec, cfg, options, b.nd.db, request);
  if (secs != nullptr) secs->push_back(timer.Seconds());
  SDADCS_CHECK(result.ok());
  SDADCS_CHECK(result->completion == core::Completion::kComplete);
  return std::move(*result);
}

void Run() {
  PrintHeader("Section 6 scaling: parallel mining");
  const core::MinerConfig cfg = PaperConfig(/*depth=*/2);
  const engine::EngineSpec serial{core::EngineKind::kSerial, 0};
  const engine::EngineSpec parallel{core::EngineKind::kParallel, 0};
  BenchJson json("scaling_parallel");
  json.Set("reps", static_cast<uint64_t>(kReps));
  json.Set("depth", static_cast<uint64_t>(cfg.max_depth));
  json.Set("top_k", static_cast<uint64_t>(cfg.top_k));

  std::printf("median [min, max] seconds of %d reps; every parallel mine "
              "renders as the serial one\n",
              kReps);
  std::printf("%8s %9s %-12s %28s %9s\n", "rows", "features", "engine",
              "seconds", "speedup");
  for (size_t rows : {20000u, 50000u, 100000u}) {
    synth::ScalingOptions opt;
    opt.rows = rows;
    opt.continuous_features = 30;
    opt.categorical_features = 10;
    const int features = opt.continuous_features + opt.categorical_features;
    Bench b = LoadNamed(synth::MakeScalingDataset(opt));

    const core::MiningResult want = TimedMine(b, cfg, serial, 0, nullptr);
    const std::string rendered = Render(want);
    std::vector<double> serial_secs;
    std::vector<std::vector<double>> parallel_secs(std::size(kWidths));
    for (int rep = 0; rep < kReps; ++rep) {
      TimedMine(b, cfg, serial, 0, &serial_secs);
      for (size_t w = 0; w < std::size(kWidths); ++w) {
        core::MiningResult got =
            TimedMine(b, cfg, parallel, kWidths[w], &parallel_secs[w]);
        SDADCS_CHECK(Render(got) == rendered);
        SDADCS_CHECK(SameCounters(got.counters, want.counters));
      }
    }

    const Spread base = SpreadOf(serial_secs);
    auto report = [&](const std::string& engine, size_t width,
                      const Spread& s) {
      const double speedup = s.median > 0.0 ? base.median / s.median : 0.0;
      std::printf("%8zu %9d %-12s %9.3f [%7.3f, %7.3f] %8.2fx\n", rows,
                  features, engine.c_str(), s.median, s.min, s.max, speedup);
      json.BeginCase("rows_" + std::to_string(rows) + "_" + engine);
      json.SetCase("rows", static_cast<uint64_t>(rows));
      json.SetCase("features", static_cast<uint64_t>(features));
      json.SetCase("engine", engine);
      json.SetCase("width", static_cast<uint64_t>(width));
      json.SetCase("median_seconds", s.median);
      json.SetCase("min_seconds", s.min);
      json.SetCase("max_seconds", s.max);
      json.SetCase("speedup_vs_serial", speedup);
      json.SetCase("partitions", want.counters.partitions_evaluated);
      json.SetCase("patterns", static_cast<uint64_t>(want.contrasts.size()));
    };
    report("serial", 1, base);
    for (size_t w = 0; w < std::size(kWidths); ++w) {
      report("parallel:" + std::to_string(kWidths[w]), kWidths[w],
             SpreadOf(parallel_secs[w]));
    }
  }
  json.Write();
  std::printf(
      "\npaper-shape check: time grows roughly linearly with rows "
      "(18/106/225 min for 100k/500k/1M in the paper), and the parallel "
      "engine speeds a mine up with its width when the host has the cores "
      "(this host reports %u).\n",
      std::thread::hardware_concurrency());
}

}  // namespace
}  // namespace sdadcs::bench

int main() {
  sdadcs::bench::Run();
  return 0;
}
