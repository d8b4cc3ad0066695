// sdadcs_tool — command-line front end for the library.
//
//   sdadcs_tool profile <file.csv>
//   sdadcs_tool mine <file.csv> --group <attr> [options]
//   sdadcs_tool discretize <file.csv> --group <attr> --method <m> [options]
//   sdadcs_tool onevsrest <file.csv> --group <attr> [options]
//
// The dataset argument is a CSV path, `synth:<name>[:<rows>]` for a
// built-in generated dataset (`synth:scaling:50000`, `synth:adult`, ...),
// or `spill:<path>` for a columnar spill file served mmap-backed.
//
// Common mining options:
//   --engine NAME       mining engine, any name of the engine table:
//                       serial | parallel | beam | window |
//                       binned:<method> | sharded | sharded:<n>
//                       (default serial); --engine list prints the
//                       table. `auto` is the servers' row-count rule,
//                       so here it is a usage error (exit 2).
//                       --window-rows, --bins (at least 1) and --shards
//                       tune the window/binned/parallel engines
//                       (parallel and sharded run --shards members, 0 =
//                       one per core; sharded:<n> names its own count)
//   --groups a,b        contrast exactly these two group values
//   --depth N           max items per pattern          (default 2)
//   --delta D           minimum support difference     (default 0.1)
//   --alpha A           significance level             (default 0.05)
//   --measure M         diff | pr | surprising | entropy
//   --top K             top-k list size                (default 100)
//   --np                disable meaningfulness pruning (SDAD-CS NP)
//   --format F          table | csv | json
//   --validate FRAC     holdout split: mine on FRAC, re-score on the rest
//   --sample N          mine a stratified N-row sample (big extracts)
//   --diverse J         keep only patterns whose row covers overlap by
//                       less than Jaccard J (extensional de-dup)
//   --deadline-ms N     wall-clock budget; on expiry the run drains and
//                       the best-so-far patterns are printed
//   --node-budget N     stop after evaluating ~N partitions/itemsets
//                       (these two, --depth, --top, --sample, --repeat,
//                       --window-rows, --bins, --shards, --chunk-rows
//                       and --max-resident-bytes exit 2 on a bad count;
//                       --delta, --alpha, --validate and --diverse exit
//                       2 on anything but a finite number)
//   --anytime           stream monotonically-improving best-so-far
//                       "partial:" lines to stderr while the exhaustive
//                       run completes (final results on stdout are
//                       unchanged)
//   --repeat N          mine the same request N times (per-iteration
//                       wall time on stderr; on a paged dataset each
//                       line also reports chunk residency)
//   --chunk-rows N      rows per column chunk (default 65536); results
//                       are byte-identical for every chunk size
//   --max-resident-bytes N
//                       serve the dataset through the paged backend
//                       with at most N bytes of chunk buffers resident
//                       (spill to a temp file + mmap; 0 = fully
//                       resident)
//
// Ctrl-C (SIGINT) cancels a running mine the same way: the search
// drains cleanly and the partial results are printed.
//
// The scan kernels are the host's choice (AVX2 when the CPU has it), not
// an option; SDADCS_KERNEL=scalar, a test override, runs the scalar
// oracle instead. Every choice prints the same bytes.
//
// discretize options:
//   --method M          fayyad | mvd | srikant | equal_width | equal_freq
//   --bins N            bin count for the unsupervised methods (at
//                       least 1; exit 2 otherwise)
//
// Any flag not listed here exits 2 naming it.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/miner.h"
#include "core/diversity.h"
#include "core/report.h"
#include "core/run_state.h"
#include "core/validate.h"
#include "data/csv.h"
#include "data/profile.h"
#include "data/sample.h"
#include "discretize/equal_bins.h"
#include "discretize/fayyad.h"
#include "discretize/mvd.h"
#include "discretize/srikant.h"
#include "engine/registry.h"
#include "serve/dataset_registry.h"
#include "serve/protocol.h"
#include "util/flags.h"
#include "util/run_control.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using sdadcs::util::Flags;

// Every flag the header above lists.
const std::vector<std::string> kValueFlags = {
    "group",       "groups",      "engine", "depth",  "delta",
    "alpha",       "measure",     "top",    "format", "validate",
    "sample",      "diverse",     "repeat", "shards", "window-rows",
    "deadline-ms", "node-budget", "bins",   "method", "chunk-rows",
    "max-resident-bytes"};
const std::vector<std::string> kBooleanFlags = {"np", "anytime"};

// The run control every mining command runs under. SIGINT cancels it:
// RunControl::Cancel is a lock-free atomic store, safe from a signal
// handler, and the engines drain cooperatively and print best-so-far
// results.
sdadcs::util::RunControl& GlobalRunControl() {
  static sdadcs::util::RunControl control;
  return control;
}

extern "C" void HandleSigint(int) { GlobalRunControl().Cancel(); }

// A checked count flag (Flags::GetCount), `fallback` when absent; a
// value outside [min, max] or not a count exits 2 naming the flag.
template <typename T>
T CountFlag(const Flags& args, const std::string& name, T fallback = 0,
            uint64_t max = UINT64_MAX, uint64_t min = 0) {
  T value = fallback;
  sdadcs::util::Status status = args.GetCount(name, &value, max, min);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.message().c_str());
    std::exit(2);
  }
  return value;
}

// A checked real-number flag (Flags::GetNumber), `fallback` when absent;
// anything but a finite number exits 2 naming the flag.
double NumberFlag(const Flags& args, const std::string& name,
                  double fallback) {
  double value = fallback;
  sdadcs::util::Status status = args.GetNumber(name, &value);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.message().c_str());
    std::exit(2);
  }
  return value;
}

// Applies --deadline-ms / --node-budget to the global control and
// returns a copy (copies share state, so SIGINT still reaches it).
sdadcs::util::RunControl RunControlFromArgs(const Flags& args) {
  sdadcs::util::RunControl& control = GlobalRunControl();
  if (args.Has("deadline-ms")) {
    control.set_deadline_after(std::chrono::milliseconds(CountFlag<int64_t>(
        args, "deadline-ms", 0, sdadcs::util::kMaxDeadlineMs)));
  }
  if (args.Has("node-budget")) {
    control.set_node_budget(CountFlag<uint64_t>(args, "node-budget"));
  }
  return control;
}

void PrintCompletion(const sdadcs::core::MiningResult& result) {
  std::printf("completion: %s\n",
              sdadcs::core::CompletionToString(result.completion));
  if (result.completion != sdadcs::core::Completion::kComplete) {
    std::printf("abandoned candidates: %llu\n",
                static_cast<unsigned long long>(
                    result.counters.abandoned_candidates));
  }
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: sdadcs_tool <profile|mine|discretize|onevsrest> "
      "<file.csv|synth:name[:rows]> [--group <attr>] [options]\n"
      "see the header of tools/sdadcs_tool.cc for every option\n");
  return 2;
}

sdadcs::core::MinerConfig ConfigFromArgs(const Flags& args) {
  sdadcs::core::MinerConfig cfg;
  cfg.max_depth = CountFlag<int>(args, "depth", 2);
  cfg.delta = NumberFlag(args, "delta", 0.1);
  cfg.alpha = NumberFlag(args, "alpha", 0.05);
  cfg.top_k = CountFlag<int>(args, "top", 100);
  // The string-level enum parsers are shared with the wire protocol, so
  // the CLI and the servers accept the same names and reject with the
  // same taxonomy ("invalid_argument[measure]: ...").
  auto measure = sdadcs::serve::MeasureFromString(args.Get("measure", "diff"));
  if (!measure.ok()) {
    std::fprintf(stderr, "%s\n",
                 sdadcs::serve::WireError::FromStatus(measure.status(),
                                                      "measure")
                     .ToText()
                     .c_str());
    std::exit(2);
  }
  cfg.measure = *measure;
  if (args.Has("np")) {
    cfg.meaningful_pruning = false;
    cfg.optimistic_pruning = false;
  }
  return cfg;
}

void PrintPatterns(const Flags& args, const sdadcs::data::Dataset& db,
                   const sdadcs::data::GroupInfo& gi,
                   const std::vector<sdadcs::core::ContrastPattern>& ps) {
  std::string format = args.Get("format", "table");
  if (format == "csv") {
    std::fputs(sdadcs::core::PatternsToCsv(db, gi, ps).c_str(), stdout);
  } else if (format == "json") {
    std::fputs(sdadcs::core::PatternsToJson(db, gi, ps).c_str(), stdout);
    std::fputs("\n", stdout);
  } else {
    std::fputs(sdadcs::core::FormatPatternsTable(db, gi, ps).c_str(),
               stdout);
  }
}

int RunProfile(const Flags& args, const sdadcs::data::Dataset& db) {
  (void)args;
  std::fputs(
      sdadcs::data::FormatProfiles(sdadcs::data::ProfileDataset(db)).c_str(),
      stdout);
  return 0;
}

int RunMine(const Flags& args, const sdadcs::data::Dataset& db) {
  std::string group = args.Get("group");
  if (group.empty()) {
    std::fprintf(stderr, "mine requires --group <attr>\n");
    return 2;
  }
  auto attr = db.schema().IndexOf(group);
  if (!attr.ok()) {
    std::fprintf(stderr, "%s\n", attr.status().ToString().c_str());
    return 1;
  }
  sdadcs::util::StatusOr<sdadcs::data::GroupInfo> gi =
      args.Has("groups")
          ? sdadcs::data::GroupInfo::CreateForValues(
                db, *attr, args.GetList("groups"))
          : sdadcs::data::GroupInfo::Create(db, *attr);
  if (!gi.ok()) {
    std::fprintf(stderr, "%s\n", gi.status().ToString().c_str());
    return 1;
  }

  sdadcs::core::MinerConfig cfg = ConfigFromArgs(args);
  // Every --engine value goes through the one engine-name parser the
  // servers use; the default is the serial reference engine.
  sdadcs::engine::EngineOptions eopts;
  eopts.window_rows = CountFlag<size_t>(args, "window-rows");
  eopts.equal_bins = CountFlag<int>(args, "bins", 10, UINT64_MAX, /*min=*/1);
  eopts.shard_count = CountFlag<size_t>(args, "shards");
  sdadcs::util::StatusOr<sdadcs::engine::EngineSpec> spec =
      sdadcs::engine::ParseEngine(args.Get("engine", "serial"));
  if (spec.ok() && spec->kind == sdadcs::core::EngineKind::kAuto) {
    spec = sdadcs::util::Status::InvalidArgument(
        "engine 'auto' is resolved by the servers (sdadcs_serve, "
        "sdadcs_netd) from the dataset's row count; name an engine "
        "(--engine list)");
  }
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n",
                 sdadcs::serve::WireError::FromStatus(spec.status(),
                                                      "engine")
                     .ToText()
                     .c_str());
    return 2;
  }
  auto mine = [&](const sdadcs::core::MineRequest& request) {
    return sdadcs::engine::Mine(*spec, cfg, eopts, db, request);
  };
  sdadcs::util::RunControl control = RunControlFromArgs(args);
  if (args.Has("anytime")) {
    // Stream best-so-far previews to stderr; stdout stays identical to
    // a non-anytime run, so outputs remain diffable.
    control.set_anytime(true);
    auto timer = std::make_shared<sdadcs::util::WallTimer>();
    control.set_progress_callback(
        [timer](const sdadcs::util::RunProgress& p) {
          if (!p.improved) return;
          std::fprintf(
              stderr, "partial: level=%d patterns=%llu best=%.6f t_ms=%.1f\n",
              p.level, static_cast<unsigned long long>(p.patterns_found),
              p.best_measure, timer->Seconds() * 1e3);
        });
  }

  if (args.Has("sample")) {
    size_t n = CountFlag<size_t>(args, "sample", 10000);
    auto sampled = sdadcs::data::SampleGroups(*gi, n, 29);
    if (!sampled.ok()) {
      std::fprintf(stderr, "%s\n", sampled.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "mining a stratified sample of %zu rows\n",
                 sampled->total());
    gi = std::move(sampled);
  }

  if (args.Has("validate")) {
    double frac = NumberFlag(args, "validate", 0.7);
    auto split = sdadcs::core::MakeHoldoutSplit(db, *gi, frac, 17);
    if (!split.ok()) {
      std::fprintf(stderr, "%s\n", split.status().ToString().c_str());
      return 1;
    }
    sdadcs::core::MineRequest request;
    request.groups = &split->train;
    request.run_control = control;
    auto result = mine(request);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    auto validated = sdadcs::core::ValidateOnHoldout(
        db, split->test, result->contrasts, cfg.delta, cfg.alpha);
    std::printf("%-60s %10s %10s %6s\n", "pattern", "train diff",
                "test diff", "ok?");
    for (const auto& v : validated) {
      std::string name = v.pattern.itemset.ToString(db);
      if (name.size() > 60) name = name.substr(0, 57) + "...";
      std::printf("%-60s %10.3f %10.3f %6s\n", name.c_str(),
                  v.pattern.diff, v.test_diff,
                  v.generalizes ? "yes" : "NO");
    }
    PrintCompletion(*result);
    return 0;
  }

  sdadcs::core::MineRequest request;
  request.groups = &*gi;
  request.run_control = control;
  const int repeat = std::max(1, CountFlag<int>(args, "repeat", 1));
  sdadcs::util::StatusOr<sdadcs::core::MiningResult> result =
      sdadcs::util::Status::Internal("no mining iteration ran");
  for (int i = 0; i < repeat; ++i) {
    sdadcs::util::WallTimer iteration_timer;
    result = mine(request);
    if (!result.ok()) break;
    if (repeat > 1) {
      std::string residency;
      if (db.chunk_store() != nullptr) {
        sdadcs::data::ChunkStats cs = db.chunk_store()->stats();
        residency = " chunks: resident=" + std::to_string(cs.resident_bytes) +
                    "B peak=" + std::to_string(cs.peak_resident_bytes) +
                    "B loads=" + std::to_string(cs.loads) +
                    " evictions=" + std::to_string(cs.evictions);
      }
      std::fprintf(stderr, "repeat %d/%d: %.1f ms%s\n", i + 1, repeat,
                   iteration_timer.Seconds() * 1e3, residency.c_str());
    }
  }
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  if (args.Has("diverse")) {
    double j = NumberFlag(args, "diverse", 0.5);
    size_t before = result->contrasts.size();
    result->contrasts =
        sdadcs::core::SelectDiverse(db, *gi, result->contrasts, j);
    std::fprintf(stderr, "diverse selection kept %zu of %zu patterns\n",
                 result->contrasts.size(), before);
  }
  PrintPatterns(args, db, *gi, result->contrasts);
  if (args.Get("format", "table") == "table") {
    std::printf("\n%s\n", sdadcs::core::SummarizeRun(*result).c_str());
  }
  PrintCompletion(*result);
  return 0;
}

int RunDiscretize(const Flags& args, const sdadcs::data::Dataset& db) {
  std::string group = args.Get("group");
  if (group.empty()) {
    std::fprintf(stderr, "discretize requires --group <attr>\n");
    return 2;
  }
  auto attr = db.schema().IndexOf(group);
  if (!attr.ok()) {
    std::fprintf(stderr, "%s\n", attr.status().ToString().c_str());
    return 1;
  }
  auto gi = sdadcs::data::GroupInfo::Create(db, *attr);
  if (!gi.ok()) {
    std::fprintf(stderr, "%s\n", gi.status().ToString().c_str());
    return 1;
  }

  std::string method = args.Get("method", "fayyad");
  const int bins = CountFlag<int>(args, "bins", 4, UINT64_MAX, /*min=*/1);
  std::unique_ptr<sdadcs::discretize::Discretizer> disc;
  if (method == "fayyad") {
    disc = std::make_unique<sdadcs::discretize::FayyadMdlDiscretizer>();
  } else if (method == "mvd") {
    disc = std::make_unique<sdadcs::discretize::MvdDiscretizer>();
  } else if (method == "srikant") {
    disc = std::make_unique<sdadcs::discretize::SrikantDiscretizer>();
  } else if (method == "equal_width") {
    disc =
        std::make_unique<sdadcs::discretize::EqualWidthDiscretizer>(bins);
  } else if (method == "equal_freq") {
    disc = std::make_unique<sdadcs::discretize::EqualFrequencyDiscretizer>(
        bins);
  } else {
    std::fprintf(stderr, "unknown method '%s'\n", method.c_str());
    return 2;
  }

  std::vector<int> cont;
  for (size_t a = 0; a < db.num_attributes(); ++a) {
    if (static_cast<int>(a) != *attr &&
        db.is_continuous(static_cast<int>(a))) {
      cont.push_back(static_cast<int>(a));
    }
  }
  auto result = disc->Discretize(db, *gi, cont);
  std::printf("%s cut points:\n", disc->name().c_str());
  for (const auto& ab : result) {
    std::printf("  %s:", db.schema().attribute(ab.attr).name.c_str());
    if (ab.cuts.empty()) {
      std::printf(" (none)");
    } else {
      for (double c : ab.cuts) {
        std::printf(" %s", sdadcs::util::FormatDouble(c).c_str());
      }
    }
    std::printf("\n");
  }
  return 0;
}

int RunOneVsRest(const Flags& args, const sdadcs::data::Dataset& db) {
  std::string group = args.Get("group");
  if (group.empty()) {
    std::fprintf(stderr, "onevsrest requires --group <attr>\n");
    return 2;
  }
  auto attr = db.schema().IndexOf(group);
  if (!attr.ok() || !db.is_categorical(*attr)) {
    std::fprintf(stderr, "--group must name a categorical attribute\n");
    return 1;
  }
  sdadcs::core::MinerConfig cfg = ConfigFromArgs(args);
  sdadcs::core::Miner miner(cfg);
  sdadcs::util::RunControl control = RunControlFromArgs(args);
  const auto& col = db.categorical(*attr);
  for (int32_t code = 0; code < col.cardinality(); ++code) {
    const std::string& value = col.ValueOf(code);
    auto gi = sdadcs::data::GroupInfo::CreateOneVsRest(db, *attr, value);
    if (!gi.ok()) continue;
    sdadcs::core::MineRequest request;
    request.groups = &*gi;
    request.run_control = control;
    auto result = miner.Mine(db, request);
    if (!result.ok()) continue;
    std::printf("\n=== %s = %s (n=%zu) vs rest (n=%zu): %zu contrasts\n",
                group.c_str(), value.c_str(), gi->group_size(0),
                gi->group_size(1), result->contrasts.size());
    std::fputs(sdadcs::core::FormatPatternsTable(db, *gi,
                                                 result->contrasts, 5)
                   .c_str(),
               stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv, kValueFlags, kBooleanFlags);
  if (flags.ok() && flags->Get("engine") == "list") {
    // `--engine list` prints the engine table — the rows the servers
    // expose through the "engines" wire op.
    std::printf("registered engines:\n");
    for (const sdadcs::engine::EngineRow& row : sdadcs::engine::Engines()) {
      std::printf("  %-20s %s\n", row.name, row.description);
    }
    std::printf("also accepted: sharded:<n> (explicit shard count)\n");
    return 0;
  }
  if (!flags.ok() || flags->positional().size() < 2) {
    if (!flags.ok()) {
      std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    }
    return Usage();
  }
  const std::string& command = flags->positional()[0];
  const std::string& csv_path = flags->positional()[1];

  std::signal(SIGINT, HandleSigint);

  sdadcs::serve::DatasetLoadOptions load_options;
  load_options.chunk_rows = CountFlag<size_t>(*flags, "chunk-rows");
  load_options.max_resident_bytes =
      CountFlag<size_t>(*flags, "max-resident-bytes");
  auto db = sdadcs::serve::LoadDatasetFromSpec(csv_path, load_options);
  if (!db.ok()) {
    std::fprintf(stderr, "failed to read '%s': %s\n", csv_path.c_str(),
                 db.status().ToString().c_str());
    return 1;
  }

  if (command == "profile") return RunProfile(*flags, *db);
  if (command == "mine") return RunMine(*flags, *db);
  if (command == "discretize") return RunDiscretize(*flags, *db);
  if (command == "onevsrest") return RunOneVsRest(*flags, *db);
  return Usage();
}
