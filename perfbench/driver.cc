// Driver of the repository benchmark. perfbench/run.py builds it next
// to sdadcs_netd and runs it; run that script rather than this binary.
//
//   perfbench_driver --workload serial|sharded|paged|socket --seed N
//                    --seconds S --trace 0|1 --workdir DIR --netd PATH
//
// Traffic: every workload sends the mix bench/bench_net_load.cpp
// documents for the serving layer. Callers wait for each reply before
// sending the next request (closed loop); every kColdEvery-th request of
// a caller carries a fresh request key, so it misses the result cache
// and runs the engine, and the others repeat one primed warm key, which
// the result cache answers. Fresh keys walk round-robin over a pool of
// kPool datasets generated from --seed.
//
//   serial   one caller of an in-process serve::Server (the library's
//            serving facade, as sdadcs_serve uses it); misses run the
//            serial engine over resident columns.
//   sharded  the same, misses run the shard-merge engine on 4 shards.
//   paged    the same as serial over the mmap-backed spill backend:
//            4096-row chunks, chunk bytes capped at a quarter of each
//            dataset's dense footprint.
//   socket   a child sdadcs_netd on loopback (default 2 run slots) under
//            kClients connections, each one caller.
//
// Correctness: references are mined on the serial engine over resident
// columns, and each pattern's per-group counts are recounted row by row
// against the data. An in-process miss must render byte-identical to
// its dataset's reference, and a hit must return the very result object
// checked at warm-up. Socket replies carry only a summary, so each must
// report the reference's pattern count, cache disposition and a
// complete run.
//
// End-to-end metrics: miss_ms and hit_ms, the latency of cache misses
// and of warm hits, and setup_s, the median of kSetupReps set-ups. On a
// shared VM the host slows every core by up to ~30% for stretches of
// seconds to minutes, which moves even a whole run's median. So each
// caller times a fixed-work probe that runs no repository code before
// each miss and each set-up step, and every reported time is scaled by
// the probe's slowdown against its reference time: the figures read as
// milliseconds and seconds at the host speed at which the probes take
// their reference times. A hit takes the slowdown of its caller's latest
// probe. Each probe resembles the work it scales, since the host's
// slowdown differs by kind of work: mining sorts and scans numeric
// columns, so requests are scaled by a copy and sort of 32K doubles;
// set-up parses CSV text, so it is scaled by splitting and parsing 30K
// decimal fields.
//
// Misses are taken per dataset, since their cost depends on the data:
// the median of each dataset's misses, combined across the pool by a
// geometric mean so a slowdown on any one dataset moves the figure.
// Hits are reported by their lower quartile. Over the socket the upper
// half of hit latencies depends on whether the reader thread found a
// free core while two mines and three clients share four vCPUs, which
// varies from run to run with the host's other load; a regression that
// reaches every hit, such as a slower warm path or hits queued behind
// mines, moves the lower quartile all the same.
//
// The last stdout line is one JSON object: correct, attempted, failed
// and the metrics — the end-to-end ones with --trace 0, the per-layer
// ones with --trace 1. A traced run also writes its spans, one JSON
// object per line, to DIR/../traces/<workload>-seed<N>.jsonl.

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/miner.h"
#include "core/report.h"
#include "data/csv.h"
#include "data/spill.h"
#include "serve/ndjson.h"
#include "serve/net_client.h"
#include "serve/server.h"
#include "synth/scaling.h"

extern char** environ;

namespace {

namespace core = sdadcs::core;
namespace data = sdadcs::data;
namespace serve = sdadcs::serve;
namespace synth = sdadcs::synth;
namespace fs = std::filesystem;

using Clock = std::chrono::steady_clock;

// Inputs: the scaling generator's shape at a size where one cold serial
// mine takes tens of milliseconds, so a run holds hundreds of misses.
constexpr size_t kRows = 20000;
constexpr int kContinuous = 6;
constexpr int kCategorical = 2;
const char* const kGroupAttr = "batch";
const std::vector<std::string> kGroups = {"Normal", "Anomalous"};

// Misses cycle through a pool of datasets so one run averages over
// several inputs and a seed's particular data moves the figures little.
constexpr size_t kPool = 12;
constexpr size_t kChunkRows = 4096;
constexpr size_t kShards = 4;

// bench/bench_net_load.cpp's mix: one cold request per 8.
constexpr uint64_t kColdEvery = 8;
// bench_net_load sweeps 32 to 128 connections on its host. Here the
// daemon shares 4 vCPUs with the clients, and 3 connections is what
// they run steadily: one more than sdadcs_netd's two run slots, so
// misses sometimes wait for admission and hits arrive while mines run.
constexpr int kClients = 3;

// Set-up is timed this many times per run; the median is reported.
constexpr int kSetupReps = 5;

// The probes' typical times on the 4-vCPU x86-64 VM the benchmark was
// written on: the sort on one thread and fanned out over kShards
// threads, and the parse. Their inputs are drawn once from fixed seeds.
constexpr double kProbeRefMs = 3.0;
constexpr double kFanoutProbeRefMs = 3.6;
constexpr double kParseProbeRefMs = 5.6;
constexpr size_t kProbeValues = 32768;
constexpr size_t kParseProbeFields = 30000;

struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double CpuSecondsSelf() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Host speed probe: how much slower than its reference time a fixed
// copy and sort runs right now. A probe for work that fans out over
// kShards threads runs one copy and sort on each and waits for the
// last, as the fan-out's merge barrier does, so a slow core shows as it
// does there.
class Probe {
 public:
  explicit Probe(bool fanout = false)
      : ref_ms_(fanout ? kFanoutProbeRefMs : kProbeRefMs),
        work_(fanout ? kShards : 1) {
    uint64_t x = 1;
    for (size_t i = 0; i < kProbeValues; ++i) {
      x = SplitMix(x);
      base_.push_back(static_cast<double>(x >> 11));
    }
  }
  double Slowdown() {
    auto t0 = Clock::now();
    std::vector<std::thread> others;
    for (size_t t = 1; t < work_.size(); ++t) {
      others.emplace_back([this, t] { Pass(t); });
    }
    Pass(0);
    for (std::thread& t : others) t.join();
    return MsBetween(t0, Clock::now()) / ref_ms_;
  }

 private:
  void Pass(size_t t) {
    work_[t] = base_;
    std::sort(work_[t].begin(), work_[t].end());
  }

  double ref_ms_;
  std::vector<double> base_;
  std::vector<std::vector<double>> work_;
};

// Set-up speed probe: how much slower than kParseProbeRefMs splitting
// fixed comma-separated text into cells and parsing each with strtod
// runs right now.
class ParseProbe {
 public:
  ParseProbe() {
    uint64_t x = 7;
    char buf[64];
    for (size_t i = 0; i < kParseProbeFields; ++i) {
      x = SplitMix(x);
      std::snprintf(buf, sizeof(buf), "%.6f,",
                    static_cast<double>(x >> 20) / 1e6);
      text_ += buf;
    }
  }
  double Slowdown() {
    auto t0 = Clock::now();
    std::vector<std::string> cells;
    double sum = 0.0;
    for (size_t at = 0; at < text_.size();) {
      const size_t comma = text_.find(',', at);
      cells.emplace_back(text_, at, comma - at);
      sum += std::strtod(cells.back().c_str(), nullptr);
      at = comma + 1;
    }
    sink_ += sum;
    return MsBetween(t0, Clock::now()) / kParseProbeRefMs;
  }

 private:
  std::string text_;
  double sink_ = 0.0;  // keeps the parse observable
};

// Times one set-up as a sum of steps, each scaled by a probe taken just
// before it, since the host's speed can change within a set-up.
class SetupTimer {
 public:
  explicit SetupTimer(ParseProbe* probe) : probe_(probe) {}
  template <typename Work>
  void Step(Work&& work) {
    const double slowdown = probe_->Slowdown();
    auto t0 = Clock::now();
    work();
    seconds_ += MsBetween(t0, Clock::now()) / 1e3 / slowdown;
  }
  double seconds() const { return seconds_; }

 private:
  ParseProbe* probe_;
  double seconds_ = 0.0;
};

std::string Fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------
// Spans: kept in memory during the run, written once at the end.

struct Span {
  uint64_t op = 0;
  std::string name;
  std::string parent;  // empty for a root span
  double start_ms = -1.0;  // from the start of the timed window; -1 when
                           // only the duration is known (server-reported)
  double dur_ms = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  void Start(Clock::time_point origin) { origin_ = origin; }
  void Add(uint64_t op, const std::string& name, const std::string& parent,
           Clock::time_point start, Clock::time_point end) {
    if (on_) spans_.push_back({op, name, parent, MsBetween(origin_, start),
                               MsBetween(start, end)});
  }
  void AddDuration(uint64_t op, const std::string& name,
                   const std::string& parent, double dur_ms) {
    if (on_) spans_.push_back({op, name, parent, -1.0, dur_ms});
  }
  void Merge(const Tracer& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }
  void Write(const fs::path& path) const {
    std::ofstream out(path);
    char buf[256];
    for (const Span& s : spans_) {
      std::snprintf(buf, sizeof(buf),
                    "{\"op\":%llu,\"name\":\"%s\",\"parent\":\"%s\","
                    "\"start_ms\":%.6f,\"dur_ms\":%.6f}\n",
                    static_cast<unsigned long long>(s.op), s.name.c_str(),
                    s.parent.c_str(), s.start_ms, s.dur_ms);
      out << buf;
    }
    if (!out) throw BenchError("cannot write trace " + path.string());
  }

 private:
  bool on_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Requests and their samples.

// One mine request. The warm key is dataset 0 at alpha 0.05; fresh key
// number k (k >= 1) lowers alpha by k * 1e-15. That leaves every
// p-value comparison, and so the work and the answer, as at alpha 0.05
// while the request key differs; each miss is checked against its
// dataset's alpha-0.05 reference to hold that.
struct MineSpec {
  size_t dataset = 0;
  uint64_t fresh = 0;

  double Alpha() const { return 0.05 - 1e-15 * static_cast<double>(fresh); }
  std::string Name() const { return "d" + std::to_string(dataset); }
  core::MinerConfig Config() const {
    core::MinerConfig cfg;
    cfg.max_depth = 2;
    cfg.top_k = 10;
    cfg.alpha = Alpha();
    return cfg;
  }
  std::string Frame(const std::string& id) const {
    return "{\"op\":\"mine\",\"id\":\"" + id + "\",\"dataset\":\"" + Name() +
           "\",\"group\":\"" + kGroupAttr + "\",\"groups\":[\"" + kGroups[0] +
           "\",\"" + kGroups[1] + "\"],\"engine\":\"serial\","
           "\"config\":{\"depth\":2,\"top\":10,\"alpha\":" + Fmt(Alpha()) + "}}";
  }
};

struct Sample {
  bool cold = false;
  size_t dataset = 0;
  double latency_ms = 0.0;  // as the caller sees it
  double slowdown = 1.0;    // of the caller's latest probe
  double queue_ms = 0.0;    // the server's own report from here on
  double run_ms = 0.0;
  double total_ms = 0.0;
  double partitions = 0.0;
  bool ok = false;
};

// Records one request's spans: the caller's view and, as its children,
// the server's time with the admission wait and the engine run in it.
void TraceRequest(Tracer* tracer, uint64_t op, const Sample& s,
                  Clock::time_point t0, Clock::time_point t1) {
  const std::string root = s.cold ? "miss" : "hit";
  tracer->Add(op, root, "", t0, t1);
  tracer->AddDuration(op, "server", root, s.total_ms);
  tracer->AddDuration(op, "queue", "server", s.queue_ms);
  tracer->AddDuration(op, "engine", "server", s.run_ms);
}

// ---------------------------------------------------------------------
// Result of one run.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

void Count(const std::vector<Sample>& samples, Outcome* out) {
  for (const Sample& s : samples) {
    ++out->attempted;
    if (!s.ok) {
      ++out->failed;
      out->correct = false;
    }
  }
}

void SetEndToEnd(const std::vector<Sample>& samples, double setup_s,
                 Outcome* out) {
  std::vector<std::vector<double>> miss_ms(kPool);
  std::vector<double> hit_ms;
  for (const Sample& s : samples) {
    const double scaled = s.latency_ms / s.slowdown;
    if (s.cold) {
      miss_ms[s.dataset].push_back(scaled);
    } else {
      hit_ms.push_back(scaled);
    }
  }
  double log_sum = 0.0;
  for (const std::vector<double>& v : miss_ms) {
    if (v.size() < 5) throw BenchError("too few misses per dataset to time");
    log_sum += std::log(Median(v));
  }
  if (hit_ms.size() < 100) throw BenchError("too few hits to time");
  out->metrics.push_back(
      {"miss_ms", std::exp(log_sum / static_cast<double>(kPool)), "ms"});
  out->metrics.push_back({"hit_ms", Quantile(hit_ms, 0.25), "ms"});
  out->metrics.push_back({"setup_s", setup_s, "s"});
}

// Every per-layer metric every workload reports; a layer a workload
// does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"engine_ms", "ms"},       {"serve_ms", "ms"},
    {"hit_serve_ms", "ms"},    {"queue_ms", "ms"},
    {"queued_share", "ratio"}, {"wire_ms", "ms"},
    {"cpu_util", "ratio"},     {"partitions_per_mine", "count"},
    {"chunk_loads_per_mine", "count"},
    {"chunk_evictions_per_mine", "count"},
    {"peak_resident_over_cap", "ratio"},
    {"cache_hit_ratio", "ratio"},
    {"artifact_builds", "count"},
    {"warm_fast_path_share", "ratio"},
    {"host_slowdown", "ratio"}};

// The layer figures both transports measure the same way: medians over
// the samples the server reported on.
std::map<std::string, double> SampleLayers(const std::vector<Sample>& samples,
                                           double cpu_util) {
  std::vector<double> engine, serve_self, hit_serve, queue, partitions,
      slowdown;
  for (const Sample& s : samples) {
    if (s.cold) {
      slowdown.push_back(s.slowdown);
      engine.push_back(s.run_ms);
      queue.push_back(s.queue_ms);
      serve_self.push_back(s.total_ms - s.queue_ms - s.run_ms);
      partitions.push_back(s.partitions);
    } else {
      hit_serve.push_back(s.total_ms);
    }
  }
  return {{"engine_ms", Median(engine)},
          {"serve_ms", Median(serve_self)},
          {"hit_serve_ms", Median(hit_serve)},
          {"queue_ms", Median(queue)},
          {"cpu_util", cpu_util},
          {"partitions_per_mine", Median(partitions)},
          {"host_slowdown", Median(slowdown)}};
}

void SetLayerMetrics(const std::map<std::string, double>& values,
                     Outcome* out) {
  for (const auto& [name, unit] : kLayerMetrics) {
    auto it = values.find(name);
    out->metrics.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
}

// ---------------------------------------------------------------------
// Inputs and the references.

std::vector<std::string> WriteInputs(uint64_t seed, const fs::path& dir) {
  std::vector<std::string> paths;
  for (size_t i = 0; i < kPool; ++i) {
    synth::ScalingOptions opt;
    opt.rows = kRows;
    opt.continuous_features = kContinuous;
    opt.categorical_features = kCategorical;
    opt.seed = SplitMix(seed * 1000 + i);
    synth::NamedDataset nd = synth::MakeScalingDataset(opt);
    fs::path path = dir / ("input" + std::to_string(i) + ".csv");
    auto st = data::WriteCsvFile(nd.db, path.string());
    if (!st.ok()) throw BenchError("write input: " + st.message());
    paths.push_back(fs::absolute(path).string());
  }
  return paths;
}

data::Dataset Ingest(const std::string& csv) {
  auto db = data::ReadCsvFile(csv);
  if (!db.ok()) throw BenchError("ingest " + csv + ": " + db.status().message());
  return std::move(*db);
}

core::MineRequest GroupRequest() {
  core::MineRequest req;
  req.group_attr = kGroupAttr;
  req.group_values = kGroups;
  return req;
}

// The alpha-0.05 answer for one dataset, mined serially over resident
// columns with each pattern's per-group counts recounted row by row.
struct Reference {
  std::string json;  // the rendered patterns
  int64_t patterns = 0;
};

Reference MineReference(const data::Dataset& db) {
  auto gi = core::ResolveRequestGroups(db, GroupRequest());
  if (!gi.ok()) throw BenchError("reference groups: " + gi.status().message());
  core::MineRequest req;
  req.groups = &*gi;
  auto result = core::Miner(MineSpec{}.Config()).Mine(db, req);
  if (!result.ok()) throw BenchError("reference mine: " + result.status().message());
  if (result->completion != core::Completion::kComplete ||
      result->contrasts.empty()) {
    throw BenchError("reference mine incomplete or empty");
  }
  for (const core::ContrastPattern& p : result->contrasts) {
    std::vector<double> counts(static_cast<size_t>(gi->num_groups()), 0.0);
    for (uint32_t row : gi->base_selection().rows()) {
      if (p.itemset.Matches(db, row)) counts[gi->group_of(row)] += 1.0;
    }
    if (counts != p.counts) throw BenchError("reference counts do not recount");
  }
  return {core::PatternsToJson(db, *gi, result->contrasts),
          static_cast<int64_t>(result->contrasts.size())};
}

struct Inputs {
  std::vector<std::string> csvs;
  std::vector<data::Dataset> dense;
  std::vector<Reference> reference;
};

Inputs MakeInputs(uint64_t seed, const fs::path& workdir) {
  Inputs in;
  in.csvs = WriteInputs(seed, workdir);
  for (const std::string& csv : in.csvs) {
    in.dense.push_back(Ingest(csv));
    in.reference.push_back(MineReference(in.dense.back()));
  }
  return in;
}

// ---------------------------------------------------------------------
// In-process serving: serial, sharded, paged.

struct InProcessSpec {
  core::EngineKind engine;
  bool paged;
};

Outcome RunInProcess(const InProcessSpec& spec, uint64_t seed, double seconds,
                     const fs::path& workdir, Tracer* tracer) {
  const Inputs in = MakeInputs(seed, workdir);
  std::vector<data::GroupInfo> groups;
  for (const data::Dataset& db : in.dense) {
    groups.push_back(*core::ResolveRequestGroups(db, GroupRequest()));
  }

  serve::ServerOptions sopt;
  sopt.shard_count = kShards;
  if (spec.paged) {
    sopt.chunk_rows = kChunkRows;
    sopt.max_resident_bytes = in.dense[0].MemoryUsage() / 4;
  }

  // Hits and serial misses run on one thread; sharded misses fan out
  // and are scaled by a probe that fans out as wide.
  const bool fans_out = spec.engine == core::EngineKind::kSharded;
  Probe probe;
  Probe fanout(fans_out);
  ParseProbe setup_probe;

  // Set-up: a fresh server loads the pool. Resident: CSV ingest. Paged:
  // ingest, spill to a columnar file, reopen it mmap-backed.
  std::unique_ptr<serve::Server> server;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    SetupTimer timer(&setup_probe);
    timer.Step([&] { server = std::make_unique<serve::Server>(sopt); });
    for (size_t i = 0; i < kPool; ++i) {
      const std::string name = MineSpec{i, 0}.Name();
      if (!spec.paged) {
        timer.Step([&] {
          auto ds = server->Load(name, in.csvs[i]);
          if (!ds.ok()) throw BenchError("load: " + ds.status().message());
        });
        continue;
      }
      const std::string spill = (workdir / (name + ".spill")).string();
      timer.Step([&] {
        auto st = data::WriteSpill(Ingest(in.csvs[i]), spill);
        if (!st.ok()) throw BenchError("spill: " + st.message());
        auto ds = server->Load(name, "spill:" + spill);
        std::remove(spill.c_str());
        if (!ds.ok()) throw BenchError("load spill: " + ds.status().message());
      });
    }
    setup_s.push_back(timer.seconds());
  }

  auto call_for = [&](const MineSpec& m) {
    serve::MineCall call;
    call.dataset = m.Name();
    call.config = m.Config();
    call.group_attr = kGroupAttr;
    call.group_values = kGroups;
    call.engine = spec.engine;
    return call;
  };
  auto renders_reference = [&](const serve::MineOutcome& o, size_t d) {
    return o.verdict == serve::Verdict::kOk && o.result != nullptr &&
           o.result->completion == core::Completion::kComplete &&
           core::PatternsToJson(in.dense[d], groups[d], o.result->contrasts) ==
               in.reference[d].json;
  };

  // Warm-up: one miss per dataset builds its prepared artifacts; the
  // first one primes the warm key, whose result every hit must return.
  std::shared_ptr<const core::MiningResult> warm;
  for (size_t d = 0; d < kPool; ++d) {
    serve::MineOutcome o = server->Mine(call_for(MineSpec{d, 0}));
    if (!renders_reference(o, d)) {
      throw BenchError("warm-up mine disagrees with the reference");
    }
    if (d == 0) warm = o.result;
  }
  const serve::MineCall warm_call = call_for(MineSpec{});

  const serve::ServerStats before = server->Stats();
  std::vector<Sample> samples;
  const double cpu0 = CpuSecondsSelf();
  const auto start = Clock::now();
  tracer->Start(start);
  const Clock::time_point deadline = start + std::chrono::duration_cast<Clock::duration>(
                                                std::chrono::duration<double>(seconds));
  uint64_t fresh = 0;
  double slowdown = probe.Slowdown();
  for (uint64_t n = 0; Clock::now() < deadline; ++n) {
    Sample s;
    s.cold = n % kColdEvery == kColdEvery - 1;
    const MineSpec m = s.cold ? MineSpec{fresh % kPool, fresh + 1} : MineSpec{};
    s.slowdown = slowdown;
    if (s.cold) {
      ++fresh;
      slowdown = probe.Slowdown();
      s.slowdown = fans_out ? fanout.Slowdown() : slowdown;
    }
    const serve::MineCall call = s.cold ? call_for(m) : warm_call;
    auto t0 = Clock::now();
    serve::MineOutcome o = server->Mine(call);
    auto t1 = Clock::now();
    s.dataset = m.dataset;
    s.latency_ms = MsBetween(t0, t1);
    s.queue_ms = o.queue_seconds * 1e3;
    s.run_ms = o.run_seconds * 1e3;
    s.total_ms = o.total_seconds * 1e3;
    if (s.cold) {
      s.ok = o.cache == serve::CacheStatus::kMiss && renders_reference(o, m.dataset);
      if (o.result != nullptr) {
        s.partitions = static_cast<double>(o.result->counters.partitions_evaluated);
      }
    } else {
      s.ok = o.verdict == serve::Verdict::kOk &&
             o.cache == serve::CacheStatus::kHit && o.result == warm;
    }
    TraceRequest(tracer, n, s, t0, t1);
    samples.push_back(s);
  }
  const double wall_s = MsBetween(start, Clock::now()) / 1e3;
  const double cpu_s = CpuSecondsSelf() - cpu0;
  const serve::ServerStats after = server->Stats();

  Outcome out;
  Count(samples, &out);
  if (!tracer->on()) {
    SetEndToEnd(samples, Median(setup_s), &out);
    return out;
  }
  std::map<std::string, double> layers = SampleLayers(samples, cpu_s / wall_s);
  const double misses = static_cast<double>(fresh);
  const double lookups = static_cast<double>(
      after.cache.hits + after.cache.misses - before.cache.hits - before.cache.misses);
  layers["cache_hit_ratio"] =
      static_cast<double>(after.cache.hits - before.cache.hits) / lookups;
  layers["queued_share"] =
      static_cast<double>(after.admission.admitted_after_wait -
                          before.admission.admitted_after_wait) / misses;
  layers["artifact_builds"] = static_cast<double>(
      after.registry.artifact_builds - before.registry.artifact_builds);
  if (spec.paged) {
    layers["chunk_loads_per_mine"] = static_cast<double>(
        after.registry.chunk_loads - before.registry.chunk_loads) / misses;
    layers["chunk_evictions_per_mine"] = static_cast<double>(
        after.registry.chunk_evictions - before.registry.chunk_evictions) / misses;
    double peak_over_cap = 0.0;
    for (size_t d = 0; d < kPool; ++d) {
      auto ds = server->Dataset(MineSpec{d, 0}.Name());
      if (!ds.ok()) throw BenchError("dataset: " + ds.status().message());
      data::ChunkStats cs = (*ds)->db.chunk_store()->stats();
      peak_over_cap = std::max(peak_over_cap,
                               static_cast<double>(cs.peak_resident_bytes) /
                                   static_cast<double>(cs.max_resident_bytes));
    }
    layers["peak_resident_over_cap"] = peak_over_cap;
  }
  SetLayerMetrics(layers, &out);
  return out;
}

// ---------------------------------------------------------------------
// Socket traffic against a child sdadcs_netd.

// A running sdadcs_netd. The destructor stops and reaps it on every
// path, including exceptions.
class Daemon {
 public:
  Daemon(const std::string& netd, const fs::path& workdir, int index) {
    port_file_ = workdir / ("netd" + std::to_string(index) + ".port");
    const std::string log = (workdir / "netd.log").string();
    std::vector<std::string> args = {netd, "--port", "0", "--port-file",
                                     port_file_.string()};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    int rc = posix_spawn(&pid_, netd.c_str(), &actions, nullptr, argv.data(),
                         environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw BenchError("cannot start " + netd);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }

  // Waits for the port file the daemon writes once it is listening.
  int WaitPort() const {
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
      std::ifstream in(port_file_);
      int port = 0;
      if (in >> port && port > 0) return port;
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        throw BenchError("sdadcs_netd exited during start-up");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw BenchError("sdadcs_netd did not start listening");
  }

  // CPU seconds the daemon has used so far.
  double CpuSeconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    size_t close = text.rfind(')');
    if (close == std::string::npos) return 0.0;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; fields >> field; ++i) {
      if (i == 14) utime = std::stoull(field);
      if (i == 15) {
        stime = std::stoull(field);
        break;
      }
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(sysconf(_SC_CLK_TCK));
  }

  // Graceful stop through the wire protocol; falls back to the
  // destructor's kill when the daemon does not exit in time.
  void Shutdown(serve::NetClient* conn) {
    (void)conn->Send("{\"op\":\"shutdown\"}");
    (void)conn->ReadLine();
    conn->Close();
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < deadline) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
          throw BenchError("sdadcs_netd exited abnormally");
        }
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    throw BenchError("sdadcs_netd did not drain");
  }

 private:
  fs::path port_file_;
  pid_t pid_ = -1;
};

serve::JsonValue Call(serve::NetClient* conn, const std::string& line) {
  auto reply = conn->Call(line);
  if (!reply.ok()) throw BenchError("socket call: " + reply.status().message());
  if (!reply->GetBool("ok", false)) throw BenchError("request failed: " + line);
  return std::move(*reply);
}

// A mine reply that completed with the expected disposition and number
// of patterns. (Patterns are not requested: with "emit":"patterns"
// sdadcs_netd writes the multi-line rendered JSON into the frame, which
// breaks line framing, so only the summary fields can be checked.)
bool Answers(const serve::JsonValue& reply, const std::string& cache,
             int64_t patterns) {
  return reply.GetBool("ok", false) && reply.GetString("verdict") == "ok" &&
         reply.GetString("completion") == "complete" &&
         reply.GetString("cache") == cache &&
         reply.GetInt("patterns_found", -1) == patterns;
}

struct ClientLog {
  std::vector<Sample> samples;
  Tracer tracer{false};
  std::string error;
};

void ClientLoop(int port, int client, const Inputs* in,
                Clock::time_point start, Clock::time_point deadline,
                bool trace, ClientLog* log) {
  log->tracer = Tracer(trace);
  log->tracer.Start(start);
  auto conn = serve::NetClient::Connect("127.0.0.1", port);
  if (!conn.ok()) {
    log->error = "connect: " + conn.status().message();
    return;
  }
  Probe probe;
  double slowdown = probe.Slowdown();
  uint64_t cold_count = 0;
  for (uint64_t n = 0; Clock::now() < deadline; ++n) {
    Sample s;
    s.cold = n % kColdEvery == kColdEvery - 1;
    MineSpec m;
    if (s.cold) {
      // Clients interleave on the pool and on the fresh-key numbers.
      const uint64_t k = cold_count++ * kClients + static_cast<uint64_t>(client);
      m = MineSpec{k % kPool, k + 1};
      slowdown = probe.Slowdown();
    }
    s.slowdown = slowdown;
    const std::string id = std::to_string(client) + "-" + std::to_string(n);
    auto t0 = Clock::now();
    auto reply = conn->Call(m.Frame(id));
    auto t1 = Clock::now();
    if (!reply.ok()) {
      log->error = "socket: " + reply.status().message();
      return;
    }
    s.dataset = m.dataset;
    s.latency_ms = MsBetween(t0, t1);
    s.queue_ms = reply->GetNumber("queue_ms", 0.0);
    s.run_ms = reply->GetNumber("run_ms", 0.0);
    s.total_ms = reply->GetNumber("total_ms", 0.0);
    s.ok = reply->GetString("id") == id &&
           Answers(*reply, s.cold ? "miss" : "hit", in->reference[m.dataset].patterns);
    const uint64_t op = (static_cast<uint64_t>(client) << 40) | n;
    TraceRequest(&log->tracer, op, s, t0, t1);
    log->samples.push_back(s);
  }
}

double StatsField(const serve::JsonValue& stats, const std::string& group,
                  const std::string& field) {
  const serve::JsonValue* obj = stats.Find(group);
  return obj == nullptr ? 0.0 : obj->GetNumber(field, 0.0);
}

Outcome RunSocket(const std::string& netd, uint64_t seed, double seconds,
                  const fs::path& workdir, Tracer* tracer) {
  const Inputs in = MakeInputs(seed, workdir);

  // Set-up: start the daemon, wait until it listens, load the pool.
  ParseProbe setup_probe;
  std::unique_ptr<Daemon> daemon;
  std::optional<serve::NetClient> control;
  int port = 0;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (daemon != nullptr) daemon->Shutdown(&*control);
    SetupTimer timer(&setup_probe);
    timer.Step([&] {
      daemon = std::make_unique<Daemon>(netd, workdir, rep);
      port = daemon->WaitPort();
      auto conn = serve::NetClient::Connect("127.0.0.1", port);
      if (!conn.ok()) throw BenchError("connect: " + conn.status().message());
      control.emplace(std::move(*conn));
    });
    for (size_t i = 0; i < kPool; ++i) {
      timer.Step([&] {
        Call(&*control, "{\"op\":\"load\",\"name\":\"" + MineSpec{i, 0}.Name() +
                            "\",\"spec\":\"" + in.csvs[i] + "\"}");
      });
    }
    setup_s.push_back(timer.seconds());
  }

  // Warm-up: one miss per dataset builds its prepared artifacts; the
  // first one primes the warm key.
  for (size_t d = 0; d < kPool; ++d) {
    const std::string line = MineSpec{d, 0}.Frame("warm" + std::to_string(d));
    if (!Answers(Call(&*control, line), "miss", in.reference[d].patterns)) {
      throw BenchError("warm-up mine disagrees with the reference");
    }
  }

  serve::JsonValue before = Call(&*control, "{\"op\":\"stats\"}");
  const double cpu0 = daemon->CpuSeconds();
  const auto start = Clock::now();
  tracer->Start(start);
  const Clock::time_point deadline = start + std::chrono::duration_cast<Clock::duration>(
                                                std::chrono::duration<double>(seconds));
  std::vector<ClientLog> logs(kClients);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(ClientLoop, port, c, &in, start, deadline,
                           tracer->on(), &logs[static_cast<size_t>(c)]);
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall_s = MsBetween(start, Clock::now()) / 1e3;
  const double cpu_s = daemon->CpuSeconds() - cpu0;
  serve::JsonValue after = Call(&*control, "{\"op\":\"stats\"}");
  daemon->Shutdown(&*control);

  std::vector<Sample> samples;
  for (const ClientLog& log : logs) {
    if (!log.error.empty()) throw BenchError(log.error);
    samples.insert(samples.end(), log.samples.begin(), log.samples.end());
    tracer->Merge(log.tracer);
  }
  Outcome out;
  Count(samples, &out);
  if (!tracer->on()) {
    SetEndToEnd(samples, Median(setup_s), &out);
    return out;
  }
  auto delta = [&](const std::string& group, const std::string& field) {
    return StatsField(after, group, field) - StatsField(before, group, field);
  };
  std::vector<double> wire_ms;
  double hits = 0.0;
  for (const Sample& s : samples) {
    wire_ms.push_back(s.latency_ms - s.total_ms);
    if (!s.cold) hits += 1.0;
  }
  std::map<std::string, double> layers = SampleLayers(samples, cpu_s / wall_s);
  const double lookups = delta("cache", "hits") + delta("cache", "misses");
  layers["wire_ms"] = Median(wire_ms);
  layers["queued_share"] =
      delta("admission", "admitted_after_wait") / delta("admission", "admitted");
  layers["cache_hit_ratio"] = delta("cache", "hits") / lookups;
  layers["artifact_builds"] = delta("registry", "artifact_builds");
  layers["warm_fast_path_share"] = delta("net", "warm_fast_path") / hits;
  SetLayerMetrics(layers, &out);
  return out;
}

// ---------------------------------------------------------------------

std::string Arg(int argc, char** argv, const std::string& name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == "--" + name) return argv[i + 1];
  }
  throw BenchError("missing --" + name);
}

void PrintOutcome(const Outcome& out) {
  std::string line = "{\"correct\": ";
  line += out.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + Fmt(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string workload = Arg(argc, argv, "workload");
    const uint64_t seed = std::stoull(Arg(argc, argv, "seed"));
    const double seconds = std::stod(Arg(argc, argv, "seconds"));
    const bool trace = Arg(argc, argv, "trace") == "1";
    const fs::path workdir = Arg(argc, argv, "workdir");
    fs::create_directories(workdir);

    Tracer tracer(trace);
    Outcome out;
    if (workload == "serial") {
      out = RunInProcess({core::EngineKind::kSerial, false}, seed, seconds,
                         workdir, &tracer);
    } else if (workload == "sharded") {
      out = RunInProcess({core::EngineKind::kSharded, false}, seed, seconds,
                         workdir, &tracer);
    } else if (workload == "paged") {
      out = RunInProcess({core::EngineKind::kSerial, true}, seed, seconds,
                         workdir, &tracer);
    } else if (workload == "socket") {
      out = RunSocket(Arg(argc, argv, "netd"), seed, seconds, workdir, &tracer);
    } else {
      throw BenchError("unknown workload '" + workload + "'");
    }
    if (trace) {
      fs::path dir = workdir.parent_path() / "traces";
      fs::create_directories(dir);
      tracer.Write(dir / (workload + "-seed" + std::to_string(seed) + ".jsonl"));
    }
    if (out.attempted == 0) throw BenchError("no operation completed");
    PrintOutcome(out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
