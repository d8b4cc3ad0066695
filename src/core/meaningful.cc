#include "core/meaningful.h"

#include "core/productivity.h"
#include "core/pruning.h"
#include "core/sdad.h"
#include "core/support.h"
#include "core/topk.h"
#include "data/simd_select.h"

namespace sdadcs::core {

const char* PatternClassName(PatternClass c) {
  switch (c) {
    case PatternClass::kMeaningful:
      return "meaningful";
    case PatternClass::kRedundant:
      return "redundant";
    case PatternClass::kUnproductive:
      return "unproductive";
    case PatternClass::kNotIndependentlyProductive:
      return "not_independently_productive";
  }
  return "unknown";
}

MeaningfulnessReport ClassifyPatterns(
    const data::Dataset& db, const data::GroupInfo& gi,
    const MinerConfig& cfg, const std::vector<ContrastPattern>& patterns) {
  // A throwaway context: classification reuses the mining primitives but
  // does not touch any live search state.
  PruneTable prune_table;
  TopK topk(1, cfg.delta);
  MiningCounters counters;
  MiningContext ctx;
  ctx.db = &db;
  ctx.gi = &gi;
  ctx.cfg = &cfg;
  ctx.prune_table = &prune_table;
  ctx.topk = &topk;
  ctx.counters = &counters;
  ctx.simd = data::SimdByDefault();
  ctx.group_sizes = GroupSizes(gi);

  MeaningfulnessReport report;
  report.classes.assign(patterns.size(), PatternClass::kMeaningful);

  ResidualTest residuals(ctx, patterns);
  for (size_t i = 0; i < patterns.size(); ++i) {
    const ContrastPattern& p = patterns[i];
    if (IsRedundantAgainstSubsets(ctx, p)) {
      report.classes[i] = PatternClass::kRedundant;
      ++report.redundant;
      continue;
    }
    if (!IsProductive(ctx, p)) {
      report.classes[i] = PatternClass::kUnproductive;
      ++report.unproductive;
      continue;
    }
    if (!residuals.IndependentlyProductive(i)) {
      report.classes[i] = PatternClass::kNotIndependentlyProductive;
      ++report.not_independently_productive;
      continue;
    }
    ++report.meaningful;
  }
  return report;
}

}  // namespace sdadcs::core
