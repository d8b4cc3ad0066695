#include "data/csv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>

#include "util/string_util.h"

namespace sdadcs::data {

namespace {

constexpr size_t kNone = std::numeric_limits<size_t>::max();

bool IsMissingToken(std::string_view token, const CsvOptions& options) {
  if (token.empty()) return true;
  return std::find(options.missing_tokens.begin(),
                   options.missing_tokens.end(),
                   token) != options.missing_tokens.end();
}

// Calls visit(line) for each line of `text` that holds more than
// whitespace, until it returns false. Lines end at '\n' (the last one
// needs none) and lose one '\r' before it.
template <typename Visit>
void ForEachLine(std::string_view text, Visit&& visit) {
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p < end) {
    const char* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<size_t>(end - p)));
    const char* stop = nl != nullptr ? nl : end;
    std::string_view line(p, stop - p);
    p = nl != nullptr ? nl + 1 : end;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (util::Trim(line).empty()) continue;
    if (!visit(line)) return;
  }
}

// Returned by SplitFields for a line whose quoted field never closes.
// Embedded newlines are not supported: the reader is line-oriented.
constexpr size_t kUnterminated = kNone;

// Splits one line into fields, honoring RFC-4180 quoting, and calls
// visit(column, field) for each in order until it returns false; returns
// the number of fields visited, or kUnterminated. A field whose first
// non-blank byte is '"' runs to the closing quote: "" inside is a
// literal quote, delimiters inside are data, and text after the closing
// quote up to the delimiter is kept as it stands. Other fields are
// trimmed. A field is a view into `line`, or, when it holds "" or text
// after its closing quote, into `scratch`, valid until the next field.
template <typename Visit>
size_t SplitFields(std::string_view line, char delim, std::string& scratch,
                   Visit&& visit) {
  const char* p = line.data();
  const char* const end = p + line.size();
  auto find = [end](const char* from, char c) {
    if (from >= end) return end;
    const void* at = std::memchr(from, c, static_cast<size_t>(end - from));
    return at != nullptr ? static_cast<const char*>(at) : end;
  };
  for (size_t column = 0;; ++column) {
    while (p < end && *p != delim && util::IsSpace(*p)) ++p;
    std::string_view field;
    const char* stop;  // the field's delimiter, or the line's end
    if (p < end && *p == '"') {
      const char* open = p + 1;
      const char* close = find(open, '"');
      if (close == end) return kUnterminated;
      bool copied = false;
      while (close + 1 < end && close[1] == '"') {
        if (!copied) scratch.clear();
        copied = true;
        scratch.append(open, close + 1);
        open = close + 2;
        close = find(open, '"');
        if (close == end) return kUnterminated;
      }
      stop = find(close + 1, delim);
      if (copied || stop != close + 1) {
        if (!copied) scratch.clear();
        scratch.append(open, close);
        scratch.append(close + 1, stop);
        field = scratch;
      } else {
        field = std::string_view(open, close - open);
      }
    } else {
      stop = find(p, delim);
      field = util::Trim(std::string_view(p, stop - p));
    }
    if (!visit(column, field) || stop == end) return column + 1;
    p = stop + 1;
  }
}

// One column across the first walk. It stays numeric until its first
// field that neither is missing nor parses.
struct ColumnScan {
  bool numeric = true;
  bool any_value = false;      // some field parsed
  std::vector<double> values;  // parsed values, NaN where missing
  // The first infinite value, reported if the column stays numeric.
  size_t infinite_row = kNone;
  std::string infinite_field;
};

}  // namespace

util::StatusOr<Dataset> ReadCsvString(std::string_view text,
                                      const CsvOptions& options) {
  const char delim = options.delimiter;
  std::string scratch;
  std::vector<std::string> names;
  std::vector<ColumnScan> columns;
  size_t rows = 0;  // non-blank lines so far, the header included
  size_t ragged_row = kNone;
  size_t ragged_fields = 0;
  bool unterminated = false;

  // First walk: find the lines and fields, check every line's quoting
  // and width, and parse each field of a still-numeric column straight
  // into that column.
  ForEachLine(text, [&](std::string_view line) {
    if (rows == 0) {
      const size_t width = SplitFields(
          line, delim, scratch, [&](size_t, std::string_view field) {
            if (options.has_header) names.emplace_back(field);
            return true;
          });
      if (width == kUnterminated) {
        unterminated = true;
        return false;
      }
      for (size_t c = 0; !options.has_header && c < width; ++c) {
        names.push_back(util::StrFormat("attr_%zu", c));
      }
      columns.resize(width);
      for (size_t c = 0; c < width; ++c) {
        columns[c].numeric =
            std::find(options.force_categorical.begin(),
                      options.force_categorical.end(),
                      names[c]) == options.force_categorical.end();
      }
      if (options.has_header) {
        ++rows;
        return true;
      }
    }
    const size_t row = rows++;
    const bool parse = ragged_row == kNone;
    const size_t width = SplitFields(
        line, delim, scratch, [&](size_t c, std::string_view field) {
          if (!parse || c >= columns.size() || !columns[c].numeric) {
            return true;
          }
          ColumnScan& col = columns[c];
          if (IsMissingToken(field, options)) {
            col.values.push_back(std::numeric_limits<double>::quiet_NaN());
            return true;
          }
          const std::optional<double> v = util::ParseDouble(field);
          if (!v.has_value()) {
            col.numeric = false;
            col.values = std::vector<double>();
            return true;
          }
          col.any_value = true;
          if (std::isinf(*v) && col.infinite_row == kNone) {
            col.infinite_row = row;
            col.infinite_field = field;
          }
          col.values.push_back(*v);
          return true;
        });
    if (width == kUnterminated) {
      unterminated = true;
      return false;
    }
    if (width != columns.size() && ragged_row == kNone) {
      ragged_row = row;
      ragged_fields = width;
    }
    return true;
  });
  if (unterminated) {
    return util::Status::InvalidArgument(
        "unterminated quoted CSV field (embedded newlines are not "
        "supported)");
  }
  if (rows == 0) {
    return util::Status::InvalidArgument("CSV input contains no rows");
  }
  if (options.has_header && rows == 1) {
    return util::Status::InvalidArgument("CSV input has a header only");
  }
  if (ragged_row != kNone) {
    return util::Status::InvalidArgument(
        util::StrFormat("CSV row %zu has %zu fields, expected %zu",
                        ragged_row, ragged_fields, columns.size()));
  }

  // A column is continuous iff every non-missing field parsed and one
  // did; all-missing and forced columns are categorical.
  const size_t num_cols = columns.size();
  DatasetBuilder builder;
  std::vector<int> attr(num_cols);
  size_t categorical_end = 0;  // one past the last categorical column
  size_t infinite_col = kNone;  // holds the first infinite value by row
  for (size_t c = 0; c < num_cols; ++c) {
    ColumnScan& col = columns[c];
    const bool continuous = col.numeric && col.any_value;
    attr[c] = continuous ? builder.AddContinuous(names[c])
                         : builder.AddCategorical(names[c]);
    if (attr[c] < 0) {
      return util::Status::InvalidArgument(util::StrFormat(
          "CSV header names column '%s' twice", names[c].c_str()));
    }
    if (!continuous) {
      col.numeric = false;
      categorical_end = c + 1;
    } else if (col.infinite_row != kNone &&
               (infinite_col == kNone ||
                col.infinite_row < columns[infinite_col].infinite_row)) {
      infinite_col = c;
    }
  }
  // An infinite value would make the column's root bound infinite: a
  // -inf row then matches no interval yet still counts in its group's
  // size, and hyper-volumes turn NaN.
  if (infinite_col != kNone) {
    const ColumnScan& col = columns[infinite_col];
    return util::Status::InvalidArgument(util::StrFormat(
        "CSV row %zu, column '%s': infinite value '%s'", col.infinite_row,
        names[infinite_col].c_str(), col.infinite_field.c_str()));
  }
  for (size_t c = 0; c < num_cols; ++c) {
    if (!columns[c].numeric) continue;
    for (double v : columns[c].values) builder.AppendContinuous(attr[c], v);
    columns[c].values = std::vector<double>();
  }

  // Second walk: intern the categorical columns row by row, so each
  // dictionary lists its values in order of first appearance.
  if (categorical_end > 0) {
    bool header = options.has_header;
    ForEachLine(text, [&](std::string_view line) {
      if (header) {
        header = false;
        return true;
      }
      SplitFields(line, delim, scratch,
                  [&](size_t c, std::string_view field) {
                    if (!columns[c].numeric) {
                      if (IsMissingToken(field, options)) {
                        builder.AppendMissing(attr[c]);
                      } else {
                        builder.AppendCategorical(attr[c], field);
                      }
                    }
                    return c + 1 < categorical_end;
                  });
      return true;
    });
  }
  return std::move(builder).Build();
}

namespace {

// Reads the whole file: one read of the size fstat reports, then one
// more that finds the end (a pipe or a growing file takes more).
util::StatusOr<std::string> ReadWholeFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return util::Status::IoError("cannot open '" + path +
                                 "': " + std::strerror(errno));
  }
  struct stat st;
  const size_t expected = ::fstat(fd, &st) == 0 && st.st_size > 0
                              ? static_cast<size_t>(st.st_size)
                              : 0;
  std::string text(expected + 4096, '\0');
  size_t size = 0;
  while (true) {
    if (size == text.size()) text.resize(2 * size);
    const ssize_t got = ::read(fd, text.data() + size, text.size() - size);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) {
      const int error = errno;
      ::close(fd);
      return util::Status::IoError("cannot read '" + path +
                                   "': " + std::strerror(error));
    }
    if (got == 0) break;
    size += static_cast<size_t>(got);
  }
  ::close(fd);
  text.resize(size);
  return text;
}

}  // namespace

util::StatusOr<Dataset> ReadCsvFile(const std::string& path,
                                    const CsvOptions& options) {
  util::StatusOr<std::string> text = ReadWholeFile(path);
  if (!text.ok()) return text.status();
  return ReadCsvString(*text, options);
}

namespace {

// Quotes a field when it contains the delimiter, a quote, or edge
// whitespace (which the reader would otherwise trim away).
std::string MaybeQuote(const std::string& field, char delimiter) {
  bool needs_quotes =
      field.find(delimiter) != std::string::npos ||
      field.find('"') != std::string::npos ||
      (!field.empty() &&
       (util::IsSpace(field.front()) || util::IsSpace(field.back())));
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
