#ifndef SDADCS_CORE_REPORT_H_
#define SDADCS_CORE_REPORT_H_

#include <string>
#include <vector>

#include "core/contrast.h"
#include "core/miner.h"
#include "data/dataset.h"
#include "data/group_info.h"

namespace sdadcs::core {

/// Renders patterns as an aligned plain-text table (rank, pattern,
/// per-group supports, diff, PR, p-value) — the format the triage
/// examples print for engineers.
std::string FormatPatternsTable(const data::Dataset& db,
                                const data::GroupInfo& gi,
                                const std::vector<ContrastPattern>& patterns,
                                size_t limit = 50);

/// Serializes patterns to CSV: one row per pattern, one column per item
/// attribute plus the statistics. Ranges appear as "(lo,hi]", values as
/// the category string, unconstrained attributes as empty cells.
std::string PatternsToCsv(const data::Dataset& db,
                          const data::GroupInfo& gi,
                          const std::vector<ContrastPattern>& patterns);

/// Serializes patterns to a JSON array (hand-rolled, no dependencies):
/// [{"items":[{"attr":"age","lo":18,"hi":26}, ...],
///   "supports":{"Doctorate":0.0,...}, "diff":..., "purity":...,
///   "p_value":...}, ...]
/// The array is rendered on one line (strings escape every control
/// byte), so it embeds as-is in a newline-delimited JSON frame.
std::string PatternsToJson(const data::Dataset& db,
                           const data::GroupInfo& gi,
                           const std::vector<ContrastPattern>& patterns);

/// One-paragraph run summary: groups, pattern count, timings, pruning
/// counters. Suitable for logs.
std::string SummarizeRun(const MiningResult& result);

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_REPORT_H_
