#include "data/csv.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace sdadcs::data {

namespace {

bool IsMissingToken(const std::string& token, const CsvOptions& options) {
  if (token.empty()) return true;
  return std::find(options.missing_tokens.begin(),
                   options.missing_tokens.end(),
                   token) != options.missing_tokens.end();
}

// Splits one physical line into fields, honoring RFC-4180 quoting:
// a field starting with '"' runs to the closing quote, "" inside is a
// literal quote, and delimiters inside quotes are data. Fields are
// trimmed only when unquoted. Embedded newlines are not supported (the
// reader is line-oriented); a dangling quote reports an error.
util::StatusOr<std::vector<std::string>> SplitCsvLine(
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

}  // namespace

util::StatusOr<Dataset> ReadCsvString(const std::string& text,
                                      const CsvOptions& options) {
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

util::StatusOr<Dataset> ReadCsvFile(const std::string& path,
                                    const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) return util::Status::IoError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return ReadCsvString(buf.str(), options);
}

namespace {

// Quotes a field when it contains the delimiter, a quote, or edge
// whitespace (which the reader would otherwise trim away).
std::string MaybeQuote(const std::string& field, char delimiter) {
  bool needs_quotes =
      field.find(delimiter) != std::string::npos ||
      field.find('"') != std::string::npos ||
      (!field.empty() && (std::isspace(static_cast<unsigned char>(
                              field.front())) ||
                          std::isspace(static_cast<unsigned char>(
                              field.back()))));
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string WriteCsvString(const Dataset& db, char delimiter) {
  std::string out;
  for (size_t a = 0; a < db.num_attributes(); ++a) {
    if (a > 0) out += delimiter;
    out += MaybeQuote(db.schema().attribute(a).name, delimiter);
  }
  out += '\n';
  for (uint32_t r = 0; r < db.num_rows(); ++r) {
    for (size_t a = 0; a < db.num_attributes(); ++a) {
      if (a > 0) out += delimiter;
      int attr = static_cast<int>(a);
      if (db.is_categorical(attr)) {
        const CategoricalColumn& col = db.categorical(attr);
        if (!col.is_missing(r)) {
          out += MaybeQuote(col.ValueOf(col.code(r)), delimiter);
        }
      } else {
        const ContinuousColumn& col = db.continuous(attr);
        if (!col.is_missing(r)) out += util::FormatDouble(col.value(r), 12);
      }
    }
    out += '\n';
  }
  return out;
}

util::Status WriteCsvFile(const Dataset& db, const std::string& path,
                          char delimiter) {
  std::ofstream out(path);
  if (!out) return util::Status::IoError("cannot open '" + path + "'");
  out << WriteCsvString(db, delimiter);
  if (!out) return util::Status::IoError("write failed for '" + path + "'");
  return util::Status::OK();
}

}  // namespace sdadcs::data
