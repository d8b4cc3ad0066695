#include "core/report.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace sdadcs::core {

namespace {

// Escapes a string for a CSV field (quotes when needed).
std::string CsvEscape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

// JSON number rendering: infinities become null (JSON has no inf).
std::string JsonNumber(double v) {
  if (std::isnan(v) || std::isinf(v)) return "null";
  return util::FormatDouble(v, 12);
}

}  // namespace

std::string FormatPatternsTable(const data::Dataset& db,
                                const data::GroupInfo& gi,
                                const std::vector<ContrastPattern>& patterns,
                                size_t limit) {
  const size_t n = std::min(limit, patterns.size());
  // First pass: pattern column width.
  size_t width = 12;
  std::vector<std::string> rendered;
  rendered.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rendered.push_back(patterns[i].itemset.ToString(db));
    width = std::max(width, rendered.back().size());
  }
  width = std::min<size_t>(width, 70);

  std::string out = util::StrFormat("%4s  %-*s", "rank",
                                    static_cast<int>(width), "pattern");
  for (int g = 0; g < gi.num_groups(); ++g) {
    out += util::StrFormat(" %10.10s", gi.group_name(g).c_str());
  }
  out += util::StrFormat(" %8s %6s %10s\n", "diff", "PR", "p");
  for (size_t i = 0; i < n; ++i) {
    std::string name = rendered[i];
    if (name.size() > width) name = name.substr(0, width - 3) + "...";
    out += util::StrFormat("%4zu  %-*s", i + 1, static_cast<int>(width),
                           name.c_str());
    for (double s : patterns[i].supports) {
      out += util::StrFormat(" %10.3f", s);
    }
    out += util::StrFormat(" %8.3f %6.3f %10s\n", patterns[i].diff,
                           patterns[i].purity,
                           util::FormatDouble(patterns[i].p_value, 3).c_str());
  }
  if (patterns.size() > n) {
    out += util::StrFormat("  ... and %zu more\n", patterns.size() - n);
  }
  return out;
}

std::string PatternsToCsv(const data::Dataset& db,
                          const data::GroupInfo& gi,
                          const std::vector<ContrastPattern>& patterns) {
  // Columns: every attribute that appears in some pattern, then stats.
  std::vector<int> attrs;
  for (const ContrastPattern& p : patterns) {
    for (const Item& it : p.itemset.items()) {
      if (std::find(attrs.begin(), attrs.end(), it.attr) == attrs.end()) {
        attrs.push_back(it.attr);
      }
    }
  }
  std::sort(attrs.begin(), attrs.end());

  std::string out;
  for (int a : attrs) {
    out += CsvEscape(db.schema().attribute(a).name);
    out += ',';
  }
  for (int g = 0; g < gi.num_groups(); ++g) {
    out += "supp_" + CsvEscape(gi.group_name(g));
    out += ',';
  }
  out += "diff,purity,p_value\n";

  for (const ContrastPattern& p : patterns) {
    for (int a : attrs) {
      const Item* it = p.itemset.ItemOn(a);
      if (it != nullptr) {
        if (it->kind == Item::Kind::kCategorical) {
          out += CsvEscape(db.categorical(a).ValueOf(it->code));
        } else {
          out += CsvEscape(util::StrFormat(
              "(%s,%s]", util::FormatDouble(it->lo).c_str(),
              util::FormatDouble(it->hi).c_str()));
        }
      }
      out += ',';
    }
    for (double s : p.supports) {
      out += util::FormatDouble(s, 6);
      out += ',';
    }
    out += util::FormatDouble(p.diff, 6);
    out += ',';
    out += util::FormatDouble(p.purity, 6);
    out += ',';
    out += util::FormatDouble(p.p_value, 6);
    out += '\n';
  }
  return out;
}

std::string PatternsToJson(const data::Dataset& db,
                           const data::GroupInfo& gi,
                           const std::vector<ContrastPattern>& patterns) {
  std::string out = "[";
  for (size_t i = 0; i < patterns.size(); ++i) {
    const ContrastPattern& p = patterns[i];
    if (i > 0) out += ", ";
    out += "{\"items\": [";
    for (size_t j = 0; j < p.itemset.size(); ++j) {
      const Item& it = p.itemset.item(j);
      if (j > 0) out += ", ";
      // Appended piecewise: GCC 12's -Wrestrict false positive fires on
      // `const char* + std::string&&`.
      out += "{\"attr\": \"";
      out += util::JsonEscape(db.schema().attribute(it.attr).name);
      out += "\", ";
      if (it.kind == Item::Kind::kCategorical) {
        out += "\"value\": \"";
        out += util::JsonEscape(db.categorical(it.attr).ValueOf(it.code));
        out += "\"}";
      } else {
        out += "\"lo\": " + JsonNumber(it.lo) +
               ", \"hi\": " + JsonNumber(it.hi) + "}";
      }
    }
    out += "], \"supports\": {";
    for (int g = 0; g < gi.num_groups(); ++g) {
      if (g > 0) out += ", ";
      out += '"';
      out += util::JsonEscape(gi.group_name(g));
      out += "\": " + JsonNumber(p.supports[g]);
    }
    out += "}, \"diff\": " + JsonNumber(p.diff) +
           ", \"purity\": " + JsonNumber(p.purity) +
           ", \"p_value\": " + JsonNumber(p.p_value) + "}";
  }
  out += "]";
  return out;
}

std::string SummarizeRun(const MiningResult& result) {
  std::string groups;
  for (size_t g = 0; g < result.group_names.size(); ++g) {
    if (g > 0) groups += " vs ";
    groups += result.group_names[g];
  }
  const MiningCounters& c = result.counters;
  return util::StrFormat(
      "mined %zu contrasts (%s) in %.3fs: %llu partitions evaluated, "
      "%llu SDAD-CS calls, %llu merges; pruned: lookup=%llu minsup=%llu "
      "expected=%llu redundant=%llu pure=%llu oe=%llu chi2=%llu; "
      "filtered: unproductive=%llu not-indep=%llu",
      result.contrasts.size(), groups.c_str(), result.elapsed_seconds,
      static_cast<unsigned long long>(c.partitions_evaluated),
      static_cast<unsigned long long>(c.sdad_calls),
      static_cast<unsigned long long>(c.merges),
      static_cast<unsigned long long>(c.pruned_lookup),
      static_cast<unsigned long long>(c.pruned_min_support),
      static_cast<unsigned long long>(c.pruned_low_expected),
      static_cast<unsigned long long>(c.pruned_redundant),
      static_cast<unsigned long long>(c.pruned_pure),
      static_cast<unsigned long long>(c.pruned_oe_measure),
      static_cast<unsigned long long>(c.pruned_oe_chi2),
      static_cast<unsigned long long>(c.unproductive),
      static_cast<unsigned long long>(c.not_independently_productive));
}

}  // namespace sdadcs::core
