#include "bench/common.h"

#include <cmath>
#include <cstdio>
#include <thread>

#include "discretize/fayyad.h"
#include "discretize/mvd.h"
#include "subgroup/beam.h"
#include "util/logging.h"
#include "util/timer.h"

namespace sdadcs::bench {

core::MinerConfig PaperConfig(int depth) {
  core::MinerConfig cfg;
  cfg.alpha = 0.05;
  cfg.delta = 0.1;
  cfg.max_depth = depth;
  cfg.top_k = 100;
  cfg.measure = core::MeasureKind::kSupportDiff;
  return cfg;
}

Bench Load(const std::string& name, uint64_t seed) {
  return LoadNamed(synth::MakeUciLike(name, seed));
}

Bench LoadNamed(synth::NamedDataset nd) {
  auto attr = nd.db.schema().IndexOf(nd.group_attr);
  SDADCS_CHECK(attr.ok());
  auto gi = data::GroupInfo::CreateForValues(nd.db, *attr, nd.groups);
  SDADCS_CHECK(gi.ok());
  return Bench{std::move(nd), std::move(gi).value()};
}

AlgoRun RunSdad(const Bench& b, const core::MinerConfig& cfg) {
  core::Miner miner(cfg);
  core::MineRequest request;
  request.groups = &b.gi;
  auto result = miner.Mine(b.nd.db, request);
  SDADCS_CHECK(result.ok());
  return {"SDAD-CS", std::move(result->contrasts), result->elapsed_seconds,
          result->counters.partitions_evaluated};
}

AlgoRun RunSdadNp(const Bench& b, core::MinerConfig cfg) {
  cfg.meaningful_pruning = false;
  cfg.optimistic_pruning = false;
  core::Miner miner(cfg);
  core::MineRequest request;
  request.groups = &b.gi;
  auto result = miner.Mine(b.nd.db, request);
  SDADCS_CHECK(result.ok());
  return {"SDAD-CS NP", std::move(result->contrasts),
          result->elapsed_seconds, result->counters.partitions_evaluated};
}

namespace {

AlgoRun RunBinned(const Bench& b, const core::MinerConfig& cfg,
                  const discretize::Discretizer& disc,
                  const std::string& label) {
  discretize::BinnedMinerConfig bcfg;
  bcfg.alpha = cfg.alpha;
  bcfg.delta = cfg.delta;
  bcfg.max_depth = cfg.max_depth;
  bcfg.top_k = cfg.top_k;
  bcfg.min_coverage = cfg.min_coverage;
  bcfg.measure = cfg.measure;
  discretize::BinnedMinerStats stats;
  util::WallTimer timer;
  std::vector<core::ContrastPattern> patterns =
      discretize::DiscretizeAndMine(b.nd.db, b.gi, disc, bcfg, &stats);
  return {label, std::move(patterns), timer.Seconds(),
          stats.partitions_evaluated};
}

}  // namespace

AlgoRun RunMvd(const Bench& b, const core::MinerConfig& cfg) {
  discretize::MvdDiscretizer::Options opt;
  opt.alpha = cfg.alpha;
  opt.delta = 0.01;  // the paper runs MVD with delta = 0.01 of the data
  return RunBinned(b, cfg, discretize::MvdDiscretizer(opt), "MVD");
}

AlgoRun RunEntropy(const Bench& b, const core::MinerConfig& cfg) {
  return RunBinned(b, cfg, discretize::FayyadMdlDiscretizer(), "Entropy");
}

AlgoRun RunCortana(const Bench& b, const core::MinerConfig& cfg) {
  subgroup::BeamConfig bcfg;
  bcfg.beam_width = 100;
  bcfg.max_depth = cfg.max_depth;
  bcfg.min_quality = 0.01;
  bcfg.min_coverage = 2;
  bcfg.top_k = cfg.top_k;
  subgroup::BeamSubgroupDiscovery beam(bcfg);
  subgroup::BeamStats stats;
  util::WallTimer timer;
  std::vector<core::ContrastPattern> patterns =
      beam.DiscoverContrasts(b.nd.db, b.gi, cfg.measure, &stats);
  return {"Cortana-Interval", std::move(patterns), timer.Seconds(),
          stats.descriptions_evaluated};
}

std::vector<double> TopDiffs(const AlgoRun& run, size_t k) {
  std::vector<double> out;
  out.reserve(std::min(k, run.patterns.size()));
  for (size_t i = 0; i < run.patterns.size() && i < k; ++i) {
    out.push_back(run.patterns[i].diff);
  }
  return out;
}

double MeanOf(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void PrintHeader(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
}

namespace {

std::string JsonNumber(double v) {
  if (std::isnan(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void AppendEntries(const std::vector<BenchJson::Entry>& entries,
                   const std::string& indent, std::string* out);

// First line of `command`'s standard output without its newline; "" when
// the command fails or prints nothing.
std::string FirstLineOf(const char* command) {
  std::FILE* pipe = popen(command, "r");
  if (pipe == nullptr) return "";
  char buf[512];
  std::string line;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) line = buf;
  if (pclose(pipe) != 0) return "";
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

// The checkout's commit, with "-dirty" when tracked files differ from it
// (the numbers then come from code no commit holds); "unknown" outside a
// git checkout.
std::string CommitOfCheckout() {
  std::string commit = FirstLineOf("git rev-parse --short HEAD 2>/dev/null");
  if (commit.empty()) return "unknown";
  if (!FirstLineOf("git status --porcelain --untracked-files=no 2>/dev/null")
           .empty()) {
    commit += "-dirty";
  }
  return commit;
}

// The "model name" line of /proc/cpuinfo, "unknown" where there is none.
std::string CpuModel() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char buf[512];
  std::string model = "unknown";
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    std::string line = buf;
    if (line.rfind("model name", 0) != 0) continue;
    size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    size_t begin = line.find_first_not_of(" \t", colon + 1);
    size_t end = line.find_last_not_of(" \t\r\n");
    if (begin != std::string::npos && end >= begin) {
      model = line.substr(begin, end - begin + 1);
    }
    break;
  }
  std::fclose(f);
  return model;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// Where a run's numbers came from: commit, CPU, cores, compiler and
// build type, rendered as one JSON object.
std::string ProvenanceJson() {
  const std::string build_type = SDADCS_BUILD_TYPE;
  std::vector<BenchJson::Entry> entries = {
      {"commit", JsonString(CommitOfCheckout())},
      {"cpu_model", JsonString(CpuModel())},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"compiler", JsonString(Compiler())},
      {"build_type", JsonString(build_type.empty() ? "none" : build_type)}};
  std::string out = "{\n";
  AppendEntries(entries, "    ", &out);
  return out + "  }";
}

}  // namespace

void BenchJson::Set(const std::string& key, double value) {
  entries_.push_back({key, JsonNumber(value)});
}

void BenchJson::Set(const std::string& key, uint64_t value) {
  entries_.push_back({key, std::to_string(value)});
}

void BenchJson::Set(const std::string& key, const std::string& value) {
  entries_.push_back({key, JsonString(value)});
}

void BenchJson::BeginCase(const std::string& name) {
  cases_.push_back({name, {}});
}

void BenchJson::SetCase(const std::string& key, double value) {
  SDADCS_CHECK(!cases_.empty());
  cases_.back().entries.push_back({key, JsonNumber(value)});
}

void BenchJson::SetCase(const std::string& key, uint64_t value) {
  SDADCS_CHECK(!cases_.empty());
  cases_.back().entries.push_back({key, std::to_string(value)});
}

void BenchJson::SetCase(const std::string& key, const std::string& value) {
  SDADCS_CHECK(!cases_.empty());
  cases_.back().entries.push_back({key, JsonString(value)});
}

namespace {

void AppendEntries(const std::vector<BenchJson::Entry>& entries,
                   const std::string& indent, std::string* out) {
  for (size_t i = 0; i < entries.size(); ++i) {
    *out += indent + JsonString(entries[i].key) + ": " +
            entries[i].rendered;
    if (i + 1 < entries.size()) *out += ',';
    *out += '\n';
  }
}

}  // namespace

std::string BenchJson::Write() const {
  // Render every top-level member to its own string, then join — no
  // trailing-comma bookkeeping.
  std::vector<std::string> members;
  members.push_back("  \"bench\": " + JsonString(name_));
  members.push_back("  \"provenance\": " + ProvenanceJson());
  for (const Entry& e : entries_) {
    members.push_back("  " + JsonString(e.key) + ": " + e.rendered);
  }
  if (!cases_.empty()) {
    std::string arr = "  \"cases\": [\n";
    for (size_t c = 0; c < cases_.size(); ++c) {
      arr += "    {\n";
      std::vector<Entry> with_name = cases_[c].entries;
      with_name.insert(with_name.begin(),
                       {"name", JsonString(cases_[c].name)});
      AppendEntries(with_name, "      ", &arr);
      arr += "    }";
      if (c + 1 < cases_.size()) arr += ',';
      arr += '\n';
    }
    arr += "  ]";
    members.push_back(std::move(arr));
  }
  std::string body = "{\n";
  for (size_t i = 0; i < members.size(); ++i) {
    body += members[i];
    if (i + 1 < members.size()) body += ',';
    body += '\n';
  }
  body += "}\n";

  std::string path = "BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    SDADCS_LOG(kWarning) << "cannot write bench metrics to " << path;
    return "";
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("bench metrics written to %s\n", path.c_str());
  return path;
}

void PrintPatterns(const Bench& b, const AlgoRun& run, size_t k) {
  std::printf("-- %s --\n", run.algorithm.c_str());
  if (run.patterns.empty()) {
    std::printf("  (no contrasts found)\n");
    return;
  }
  for (size_t i = 0; i < run.patterns.size() && i < k; ++i) {
    std::printf("  %2zu. %s\n", i + 1,
                run.patterns[i].ToString(b.nd.db, b.gi).c_str());
  }
}

}  // namespace sdadcs::bench
