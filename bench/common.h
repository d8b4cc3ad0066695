#ifndef SDADCS_BENCH_COMMON_H_
#define SDADCS_BENCH_COMMON_H_

// Shared harness for the table/figure reproduction binaries: runs each
// algorithm (SDAD-CS, SDAD-CS NP, MVD, Fayyad entropy, Cortana-Interval)
// with the paper's experimental settings and prints aligned rows.

#include <string>
#include <vector>

#include "core/contrast.h"
#include "core/miner.h"
#include "data/group_info.h"
#include "discretize/binned_miner.h"
#include "synth/uci_like.h"

namespace sdadcs::bench {

/// Experimental setup of Section 5: alpha = 0.05, delta = 0.1, search
/// tree stunted at `depth` levels, top-100 patterns.
core::MinerConfig PaperConfig(int depth = 2);

/// Output of one algorithm on one dataset.
struct AlgoRun {
  std::string algorithm;
  std::vector<core::ContrastPattern> patterns;  ///< sorted by measure
  double seconds = 0.0;
  uint64_t partitions = 0;
};

/// Resolved dataset + its GroupInfo.
struct Bench {
  synth::NamedDataset nd;
  data::GroupInfo gi;
};

/// Materializes a named dataset and its two-group GroupInfo.
Bench Load(const std::string& name, uint64_t seed = 7);
Bench LoadNamed(synth::NamedDataset nd);

/// SDAD-CS with all meaningfulness machinery (the paper's algorithm).
AlgoRun RunSdad(const Bench& b, const core::MinerConfig& cfg);

/// SDAD-CS NP: meaningfulness pruning/filters off.
AlgoRun RunSdadNp(const Bench& b, core::MinerConfig cfg);

/// MVD global discretization followed by STUCCO-style mining.
AlgoRun RunMvd(const Bench& b, const core::MinerConfig& cfg);

/// Fayyad-Irani entropy/MDL discretization followed by mining.
AlgoRun RunEntropy(const Bench& b, const core::MinerConfig& cfg);

/// Cortana-Interval: WRAcc beam search run once per group, pooled.
AlgoRun RunCortana(const Bench& b, const core::MinerConfig& cfg);

/// Support differences of the strongest `k` patterns (for Table 4 and
/// the Wilcoxon comparison).
std::vector<double> TopDiffs(const AlgoRun& run, size_t k);

/// Mean of `values` (0 when empty).
double MeanOf(const std::vector<double>& values);

/// Prints "== <title> ==" with surrounding blank lines.
void PrintHeader(const std::string& title);

/// Prints the top `k` patterns of a run, one per line, with supports.
void PrintPatterns(const Bench& b, const AlgoRun& run, size_t k);

/// Machine-readable metrics sink for the bench binaries. Collects flat
/// key/value metrics plus per-case metric groups, then serialises to
/// `BENCH_<name>.json` in the working directory so driver scripts can
/// diff runs without scraping stdout. Every file opens with a
/// `provenance` object: the commit (`git rev-parse --short HEAD` of the
/// working directory's checkout, "-dirty" when tracked files differ from
/// it, "unknown" outside a checkout), the CPU model, `nproc`, the
/// compiler and the build type.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void Set(const std::string& key, double value);
  void Set(const std::string& key, uint64_t value);
  void Set(const std::string& key, const std::string& value);

  /// Starts a named metric group (one JSON object in the "cases" array);
  /// subsequent SetCase calls land in it.
  void BeginCase(const std::string& name);
  void SetCase(const std::string& key, double value);
  void SetCase(const std::string& key, uint64_t value);
  void SetCase(const std::string& key, const std::string& value);

  /// Writes BENCH_<name>.json and returns its path ("" on failure).
  std::string Write() const;

  struct Entry {
    std::string key;
    std::string rendered;  // value already rendered as JSON
  };

 private:
  struct Case {
    std::string name;
    std::vector<Entry> entries;
  };

  std::string name_;
  std::vector<Entry> entries_;
  std::vector<Case> cases_;
};

}  // namespace sdadcs::bench

#endif  // SDADCS_BENCH_COMMON_H_
