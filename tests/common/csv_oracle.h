#ifndef SDADCS_TESTS_COMMON_CSV_ORACLE_H_
#define SDADCS_TESTS_COMMON_CSV_ORACLE_H_

// The line-oriented CSV reader that data::ReadCsvString replaced, kept
// as the differential oracle for it: every line staged as a string, then
// split into a vector of per-cell strings, type inference over the
// staged cells, then row-major appends through DatasetBuilder. Its
// behaviour is the contract, including which fault it reports when a
// text holds several. It aborts on a header that repeats a name (the
// builder's -1 index reaches an append), so callers skip such inputs.

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "data/csv.h"
#include "data/dataset.h"
#include "util/status.h"
#include "util/string_util.h"

namespace sdadcs::test_support {

namespace csv_oracle_internal {

inline bool IsMissingToken(const std::string& token,
                           const data::CsvOptions& options) {
  if (token.empty()) return true;
  return std::find(options.missing_tokens.begin(),
                   options.missing_tokens.end(),
                   token) != options.missing_tokens.end();
}

}  // namespace csv_oracle_internal

// Splits one physical line into fields, honoring RFC-4180 quoting:
// a field starting with '"' runs to the closing quote, "" inside is a
// literal quote, and delimiters inside quotes are data. Fields are
// trimmed only when unquoted. Embedded newlines are not supported (the
// reader is line-oriented); a dangling quote reports an error.
inline util::StatusOr<std::vector<std::string>> SplitCsvLine(
    const std::string& line, char delim) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  bool was_quoted = false;
  size_t i = 0;
  while (i < line.size()) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"' && util::Trim(current).empty() && !was_quoted) {
      in_quotes = true;
      was_quoted = true;
      current.clear();  // drop leading whitespace before the quote
    } else if (c == delim) {
      fields.push_back(was_quoted ? current
                                  : std::string(util::Trim(current)));
      current.clear();
      was_quoted = false;
    } else {
      current += c;
    }
    ++i;
  }
  if (in_quotes) {
    return util::Status::InvalidArgument(
        "unterminated quoted CSV field (embedded newlines are not "
        "supported)");
  }
  fields.push_back(was_quoted ? current : std::string(util::Trim(current)));
  return fields;
}

inline util::StatusOr<data::Dataset> OracleReadCsvString(
    const std::string& text, const data::CsvOptions& options = {}) {
  using csv_oracle_internal::IsMissingToken;
  using data::DatasetBuilder;
  std::vector<std::vector<std::string>> rows;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (util::Trim(line).empty()) continue;
    util::StatusOr<std::vector<std::string>> fields =
        SplitCsvLine(line, options.delimiter);
    if (!fields.ok()) return fields.status();
    rows.push_back(std::move(fields).value());
  }
  if (rows.empty()) {
    return util::Status::InvalidArgument("CSV input contains no rows");
  }

  std::vector<std::string> names;
  size_t data_start = 0;
  if (options.has_header) {
    names = rows[0];
    data_start = 1;
    if (rows.size() == 1) {
      return util::Status::InvalidArgument("CSV input has a header only");
    }
  } else {
    names.reserve(rows[0].size());
    for (size_t i = 0; i < rows[0].size(); ++i) {
      names.push_back(util::StrFormat("attr_%zu", i));
    }
  }
  const size_t num_cols = names.size();
  for (size_t r = data_start; r < rows.size(); ++r) {
    if (rows[r].size() != num_cols) {
      return util::Status::InvalidArgument(util::StrFormat(
          "CSV row %zu has %zu fields, expected %zu", r, rows[r].size(),
          num_cols));
    }
  }

  // Type inference: continuous iff all non-missing fields parse as numbers
  // and the column is not forced categorical.
  std::vector<bool> is_continuous(num_cols, true);
  for (size_t c = 0; c < num_cols; ++c) {
    if (std::find(options.force_categorical.begin(),
                  options.force_categorical.end(),
                  names[c]) != options.force_categorical.end()) {
      is_continuous[c] = false;
      continue;
    }
    bool any_value = false;
    for (size_t r = data_start; r < rows.size(); ++r) {
      const std::string& f = rows[r][c];
      if (IsMissingToken(f, options)) continue;
      any_value = true;
      if (!util::ParseDouble(f).has_value()) {
        is_continuous[c] = false;
        break;
      }
    }
    if (!any_value) is_continuous[c] = false;  // all-missing -> categorical
  }

  DatasetBuilder builder;
  std::vector<int> attr_index(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    attr_index[c] = is_continuous[c] ? builder.AddContinuous(names[c])
                                     : builder.AddCategorical(names[c]);
  }
  for (size_t r = data_start; r < rows.size(); ++r) {
    for (size_t c = 0; c < num_cols; ++c) {
      const std::string& f = rows[r][c];
      if (IsMissingToken(f, options)) {
        builder.AppendMissing(attr_index[c]);
      } else if (is_continuous[c]) {
        // An infinite value would make the column's root bound infinite:
        // a -inf row then matches no interval yet still counts in its
        // group's size, and hyper-volumes turn NaN.
        const double v = *util::ParseDouble(f);
        if (std::isinf(v)) {
          return util::Status::InvalidArgument(util::StrFormat(
              "CSV row %zu, column '%s': infinite value '%s'", r,
              names[c].c_str(), f.c_str()));
        }
        builder.AppendContinuous(attr_index[c], v);
      } else {
        builder.AppendCategorical(attr_index[c], f);
      }
    }
  }
  return std::move(builder).Build();
}

}  // namespace sdadcs::test_support

#endif  // SDADCS_TESTS_COMMON_CSV_ORACLE_H_
