// Serving-layer throughput: requests/second through the full Server
// stack (registry lookup, canonical cache key, admission, engine) at
// 1, 4 and hardware-concurrency workers, cold versus warm.
//
// Cold = every request mines a freshly loaded dataset handle it has
// never seen, so it misses the result cache AND pays the
// prepared-artifact build (resolved groups and root bounds).
// Prepared-warm = still all cache misses (each worker iteration
// perturbs top_k, so every key is new), but against one dataset whose
// artifact bundle is already built: the gap over cold is what hoisting
// request-invariant state out of the mine path buys a miss.
// Warm = every request after the first is a byte-identical repeat and
// must be served from the cache: a warm hit costs a hash lookup, not a
// mining run.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "serve/server.h"
#include "synth/scaling.h"
#include "util/logging.h"
#include "util/timer.h"

namespace sdadcs::bench {
namespace {

constexpr char kDataset[] = "scaling";
// A cold request is a full mining run (tens of ms); a warm one is a
// cache lookup (microseconds). Iteration counts are sized so each sweep
// takes comparable wall time and the warm number is not thread-startup
// noise. Depth 1 keeps the engine run and the artifact builds on the
// same order of magnitude, so the cold-vs-prepared gap is measurable
// rather than drowned by lattice search.
constexpr int kColdPerWorker = 4;
constexpr int kWarmPerWorker = 4000;

serve::MineCall BaseCall() {
  serve::MineCall call;
  call.dataset = kDataset;
  call.config = PaperConfig(/*depth=*/1);
  call.group_attr = "batch";
  return call;
}

struct Sweep {
  double cold_rps = 0.0;
  double prepared_rps = 0.0;
  double warm_rps = 0.0;
};

/// Drives `workers` threads, each issuing `iterations` requests.
/// `key_offset >= 0` makes every request a fresh cache key starting at
/// top_k = key_offset (cold / prepared-warm); -1 shares one key across
/// all requests (warm after the first). `fresh_dataset` points each
/// request at its own never-mined handle ("cold_<n>") so it pays the
/// artifact builds as well as the engine run.
double MeasureRps(serve::Server& server, size_t workers, int iterations,
                  int key_offset, bool fresh_dataset) {
  std::vector<std::thread> threads;
  threads.reserve(workers);
  util::WallTimer timer;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&server, w, iterations, key_offset,
                          fresh_dataset] {
      for (int i = 0; i < iterations; ++i) {
        serve::MineCall call = BaseCall();
        int request_id = static_cast<int>(w) * iterations + i;
        if (fresh_dataset) {
          call.dataset = "cold_" + std::to_string(request_id);
        }
        if (key_offset >= 0) {
          // Unique (worker, iteration) -> unique semantic fingerprint.
          call.config.top_k = key_offset + request_id;
        }
        serve::MineOutcome out = server.Mine(call);
        SDADCS_CHECK(out.verdict == serve::Verdict::kOk);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  double secs = timer.Seconds();
  double total = static_cast<double>(workers) * iterations;
  return secs > 0 ? total / secs : 0.0;
}

Sweep RunSweep(size_t workers, size_t rows) {
  serve::ServerOptions options;
  options.max_concurrent_runs = static_cast<int>(workers);
  options.max_queue = static_cast<int>(workers) * kColdPerWorker;
  options.result_cache_capacity =
      2 * workers * kColdPerWorker + 16;  // no eviction mid-sweep
  serve::Server server(options);

  char spec[64];
  std::snprintf(spec, sizeof(spec), "synth:scaling:%zu", rows);
  auto loaded = server.Load(kDataset, spec);
  SDADCS_CHECK(loaded.ok());
  // One never-mined handle per cold request, loaded before the clock
  // starts: the cold sweep times the mine + artifact builds, not
  // dataset loading.
  const int cold_requests = static_cast<int>(workers) * kColdPerWorker;
  for (int n = 0; n < cold_requests; ++n) {
    SDADCS_CHECK(server.Load("cold_" + std::to_string(n), spec).ok());
  }

  Sweep sweep;
  // Every cold request is the first mine of its own handle, so each
  // pays the full prepared-artifact build.
  sweep.cold_rps = MeasureRps(server, workers, kColdPerWorker,
                              /*key_offset=*/100, /*fresh_dataset=*/true);
  // Prime the shared handle's bundle, then issue disjoint keys against
  // it: still all cache misses, but zero artifact builds.
  {
    serve::MineCall prime = BaseCall();
    prime.config.top_k = 99;
    SDADCS_CHECK(server.Mine(prime).verdict == serve::Verdict::kOk);
  }
  sweep.prepared_rps = MeasureRps(server, workers, kColdPerWorker,
                                  /*key_offset=*/100, /*fresh_dataset=*/false);
  // One priming request, then every warm request repeats its key.
  (void)server.Mine(BaseCall());
  sweep.warm_rps = MeasureRps(server, workers, kWarmPerWorker,
                              /*key_offset=*/-1, /*fresh_dataset=*/false);
  return sweep;
}

void Run() {
  PrintHeader("Serving throughput: cold vs warm requests/second");
  const size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  const size_t rows = 2000;

  BenchJson json("serve_throughput");
  json.Set("rows", static_cast<uint64_t>(rows));
  json.Set("cold_per_worker", static_cast<uint64_t>(kColdPerWorker));
  json.Set("warm_per_worker", static_cast<uint64_t>(kWarmPerWorker));

  std::printf(
      "dataset synth:scaling:%zu, %d cold / %d prepared / %d warm "
      "requests per worker\n\n",
      rows, kColdPerWorker, kColdPerWorker, kWarmPerWorker);
  std::printf("%8s %14s %14s %14s %10s\n", "workers", "cold req/s",
              "prepared req/s", "warm req/s", "speedup");
  std::vector<size_t> worker_counts = {1, 4};
  if (hw != 1 && hw != 4) worker_counts.push_back(hw);
  // Ascending, so BENCH_serve_throughput.json's cases read workers_1,
  // workers_2, ... regardless of the host's core count.
  std::sort(worker_counts.begin(), worker_counts.end());
  for (size_t workers : worker_counts) {
    Sweep sweep = RunSweep(workers, rows);
    double speedup =
        sweep.cold_rps > 0 ? sweep.warm_rps / sweep.cold_rps : 0.0;
    double prepared_over_cold =
        sweep.cold_rps > 0 ? sweep.prepared_rps / sweep.cold_rps : 0.0;
    std::printf("%8zu %14.2f %14.2f %14.2f %9.1fx\n", workers,
                sweep.cold_rps, sweep.prepared_rps, sweep.warm_rps, speedup);
    char name[32];
    std::snprintf(name, sizeof(name), "workers_%zu", workers);
    json.BeginCase(name);
    json.SetCase("workers", static_cast<uint64_t>(workers));
    json.SetCase("cold_rps", sweep.cold_rps);
    json.SetCase("prepared_warm_rps", sweep.prepared_rps);
    json.SetCase("prepared_over_cold", prepared_over_cold);
    json.SetCase("warm_rps", sweep.warm_rps);
    json.SetCase("warm_over_cold", speedup);
  }
  std::printf(
      "\nprepared requests still run the engine (cache misses) but reuse "
      "the dataset's artifact bundle; warm requests are cache hits — no "
      "admission wait, no engine run.\n");
  std::string path = json.Write();
  if (!path.empty()) std::printf("metrics: %s\n", path.c_str());
}

}  // namespace
}  // namespace sdadcs::bench

int main() {
  sdadcs::bench::Run();
  return 0;
}
