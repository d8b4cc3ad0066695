// data::ReadCsvString against the line-oriented reader it replaced
// (tests/common/csv_oracle.h). Seeded random tables, and single-byte
// flips, inserts and deletes of the valid ones, must get the oracle's
// status code and message, or a Dataset equal to the oracle's in names,
// types, codes, dictionaries, value bits (any NaN equals any NaN) and
// MemoryUsage().

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv_oracle.h"
#include "common/number_literals.h"
#include "data/csv.h"
#include "util/random.h"
#include "util/string_util.h"

namespace sdadcs::data {
namespace {

bool SameValue(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  uint64_t x, y;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

// Empty when `got` equals `want`, else the first difference found.
std::string Difference(const Dataset& got, const Dataset& want) {
  if (got.num_attributes() != want.num_attributes()) return "attributes";
  if (got.num_rows() != want.num_rows()) return "rows";
  for (size_t a = 0; a < want.num_attributes(); ++a) {
    const Attribute& g = got.schema().attribute(a);
    const Attribute& w = want.schema().attribute(a);
    if (g.name != w.name) return "name of attribute " + std::to_string(a);
    if (g.type != w.type) return "type of '" + w.name + "'";
    const int attr = static_cast<int>(a);
    if (want.is_categorical(attr)) {
      const CategoricalColumn& gc = got.categorical(attr);
      const CategoricalColumn& wc = want.categorical(attr);
      if (gc.dictionary() != wc.dictionary()) {
        return "dictionary of '" + w.name + "'";
      }
      if (gc.codes() != wc.codes()) return "codes of '" + w.name + "'";
      continue;
    }
    const std::vector<double>& gv = got.continuous(attr).values();
    const std::vector<double>& wv = want.continuous(attr).values();
    for (size_t r = 0; r < wv.size(); ++r) {
      if (!SameValue(gv[r], wv[r])) {
        return "value " + std::to_string(r) + " of '" + w.name + "'";
      }
    }
  }
  if (got.MemoryUsage() != want.MemoryUsage()) {
    return "MemoryUsage " + std::to_string(got.MemoryUsage()) + " vs " +
           std::to_string(want.MemoryUsage());
  }
  return "";
}

// True when the first non-blank line, read as a header, names a column
// twice: the oracle aborts on such input before it can answer.
bool HeaderRepeatsAName(const std::string& text, const CsvOptions& options) {
  if (!options.has_header) return false;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (util::Trim(line).empty()) continue;
    auto names = test_support::SplitCsvLine(line, options.delimiter);
    if (!names.ok()) return false;
    std::set<std::string> seen(names->begin(), names->end());
    return seen.size() != names->size();
  }
  return false;
}

std::string Escaped(const std::string& text) {
  std::string out;
  for (unsigned char c : text) {
    if (c == '\n') {
      out += "\\n\n";
    } else if (c < 0x20 || c >= 0x7f || c == '\\') {
      out += util::StrFormat("\\x%02x", c);
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

// Outcome counts, to show the inputs reach every path.
struct Tally {
  size_t inputs = 0;
  size_t datasets = 0;
  size_t errors = 0;
  size_t repeated_names = 0;
  std::set<std::string> faults;  // kinds of error reported
};

// The kind of fault an error message reports.
std::string FaultKind(const std::string& message) {
  for (const char* kind : {"unterminated", "contains no rows", "header only",
                           "fields, expected", "infinite value"}) {
    if (message.find(kind) != std::string::npos) return kind;
  }
  return message;
}

// Reads `text` with both readers; returns "" when they agree.
std::string Compare(const std::string& text, const CsvOptions& options,
                    Tally* tally) {
  ++tally->inputs;
  util::StatusOr<Dataset> got = ReadCsvString(text, options);
  if (HeaderRepeatsAName(text, options)) {
    ++tally->repeated_names;
    if (got.ok() ||
        got.status().code() != util::StatusCode::kInvalidArgument) {
      return "a header naming a column twice was not an InvalidArgument";
    }
    return "";
  }
  util::StatusOr<Dataset> want =
      test_support::OracleReadCsvString(text, options);
  if (got.ok() != want.ok()) {
    return got.ok() ? "oracle failed: " + want.status().ToString()
                    : "reader failed: " + got.status().ToString();
  }
  if (!want.ok()) {
    ++tally->errors;
    tally->faults.insert(FaultKind(want.status().message()));
    if (got.status() == want.status()) return "";
    return "status " + got.status().ToString() + " vs oracle " +
           want.status().ToString();
  }
  ++tally->datasets;
  return Difference(*got, *want);
}

// Seeded random tables: quoting, escapes, text after a closing quote,
// padding inside and outside quotes, CRLF and stray CRs, blank lines,
// every default missing token, the number-literal families, columns
// that turn categorical late, all-missing columns, and (planted at a
// low rate) infinite values, ragged rows and unterminated quotes.
// Delimiter, header mode and force_categorical vary per table.
class TableWriter {
 public:
  explicit TableWriter(uint64_t seed) : rng_(seed) {}

  // Sets *options and *valid (no fault planted on purpose).
  std::string Next(CsvOptions* options, bool* valid) {
    *options = CsvOptions{};
    options->delimiter = rng_.Bernoulli(0.2) ? ';' : ',';
    options->has_header = !rng_.Bernoulli(0.15);
    delim_ = options->delimiter;
    const size_t cols = 1 + rng_.NextBelow(5);
    const size_t rows = rng_.NextBelow(9);
    std::vector<int> kinds(cols);
    for (int& kind : kinds) kind = static_cast<int>(rng_.NextBelow(5));
    std::vector<std::string> names;
    for (size_t c = 0; c < cols; ++c) {
      names.push_back(options->has_header ? "n" : "attr_");
      names.back().append(std::to_string(c));
      if (options->has_header) names.back().append(Word());
    }
    if (rng_.Bernoulli(0.15)) {
      options->force_categorical.push_back(
          rng_.Bernoulli(0.8) ? names[rng_.NextBelow(cols)] : "absent");
    }
    std::vector<std::vector<std::string>> table;
    if (options->has_header) {
      std::vector<std::string> header;
      for (const std::string& name : names) header.push_back(Render(name));
      table.push_back(header);
    }
    for (size_t r = 0; r < rows; ++r) {
      std::vector<std::string> row;
      for (size_t c = 0; c < cols; ++c) {
        row.push_back(Render(Token(kinds[c], r, rows)));
      }
      table.push_back(row);
    }
    *valid = true;
    const size_t first_row = options->has_header ? 1 : 0;
    if (table.size() > first_row && rng_.Bernoulli(0.08)) {
      // Infinite values, sometimes two in one row: the first in row
      // order, then column order, is the one reported.
      for (int n = 1 + static_cast<int>(rng_.NextBelow(3)); n > 0; --n) {
        const size_t r =
            first_row + rng_.NextBelow(table.size() - first_row);
        table[r][rng_.NextBelow(cols)] = Render(Infinite());
      }
      *valid = false;
    }
    if (!table.empty() && rng_.Bernoulli(0.06)) {  // a ragged row
      std::vector<std::string>& row = table[rng_.NextBelow(table.size())];
      if (row.size() > 1 && rng_.Bernoulli(0.5)) {
        row.pop_back();
      } else {
        row.push_back(Render(Token(0, 0, 1)));
      }
      *valid = false;
    }
    if (!table.empty() && rng_.Bernoulli(0.05)) {  // an unterminated quote
      std::vector<std::string>& row = table[rng_.NextBelow(table.size())];
      row[rng_.NextBelow(row.size())] = "\"" + Word();
      *valid = false;
    }
    std::string text;
    for (size_t i = 0; i < table.size(); ++i) {
      text += BlankLines();
      for (size_t c = 0; c < table[i].size(); ++c) {
        if (c > 0) text += delim_;
        text += table[i][c];
      }
      const bool last = i + 1 == table.size();
      if (!last || !rng_.Bernoulli(0.2)) text += LineEnd();
    }
    return text + BlankLines();
  }

  // One single-byte flip, insert or delete.
  std::string Mutate(std::string text) {
    static const char kBytes[] = {',', ';',  '"', ' ', '\t', '\r', '\n',
                                  '1', '.',  'e', '-', '+',  '?',  'a',
                                  'x', '\0', 'N', 'i', 'n',  'f'};
    const char byte = rng_.Bernoulli(0.8)
                          ? kBytes[rng_.NextBelow(sizeof kBytes)]
                          : static_cast<char>(rng_.NextBelow(256));
    const size_t at = rng_.NextBelow(text.size() + 1);
    switch (rng_.NextBelow(3)) {
      case 0:
        if (at < text.size()) {
          text[at] = byte;
          break;
        }
        [[fallthrough]];
      case 1:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), byte);
        break;
      default:
        if (at < text.size()) text.erase(at, 1);
    }
    return text;
  }

 private:
  // A field's text: kinds are 0 numbers, 1 words, 2 numbers turning
  // categorical at a late row, 3 all missing, 4 a mix of all three.
  std::string Token(int kind, size_t row, size_t rows) {
    switch (kind) {
      case 0:
        return rng_.Bernoulli(0.15) ? Missing() : Number();
      case 1:
        return rng_.Bernoulli(0.15) ? Missing() : Word();
      case 2:
        return row + 1 == rows && row > 0 ? Word() : Number();
      case 3:
        return Missing();
      default: {
        const uint64_t pick = rng_.NextBelow(10);
        return pick < 6 ? Number() : pick < 8 ? Missing() : Word();
      }
    }
  }

  std::string Number() {
    if (rng_.Bernoulli(0.04)) {
      return test_support::kEdgeLiterals[rng_.NextBelow(
          std::size(test_support::kEdgeLiterals))];
    }
    switch (rng_.NextBelow(4)) {
      case 0:
        return test_support::SeventeenDigits(rng_);
      case 1:
        return std::to_string(rng_.UniformInt(-50, 50));
      default:
        return test_support::PrintDouble(
            test_support::RandomDouble(rng_),
            static_cast<int>(rng_.NextBelow(4)));
    }
  }

  std::string Infinite() {
    static const char* const kInfinite[] = {"inf",  "-inf",    "INF",
                                            "+inf", "1e999",   "-1e999",
                                            "1.8e308", "Infinity"};
    return kInfinite[rng_.NextBelow(std::size(kInfinite))];
  }

  std::string Missing() {
    static const char* const kMissing[] = {"", "?", "NA", "nan", "NaN",
                                           "  ", "\t"};
    return kMissing[rng_.NextBelow(std::size(kMissing))];
  }

  std::string Word() {
    static const char* const kWords[] = {
        "a",   "b",          "red",    "blue", "x y", "a,b",   "a;b",
        "N/A", "say \"hi\"", "\"q\"",  "1.5x", "-",   "caf\xc3\xa9",
        " ?",  "inf?",       "  pad ", "z"};
    return kWords[rng_.NextBelow(std::size(kWords))];
  }

  // `token` as a field: plain, padded, or quoted (with padding inside,
  // whitespace before the opening quote, or text after the closing one).
  // A token holding the delimiter, a quote or edge blanks is always
  // quoted, so a valid table stays valid.
  std::string Render(const std::string& token) {
    const bool must_quote =
        token.find(delim_) != std::string::npos ||
        token.find('"') != std::string::npos ||
        (!token.empty() && (token.front() == ' ' || token.back() == ' ' ||
                            token.front() == '\t'));
    const uint64_t style = must_quote ? 2 + rng_.NextBelow(5)
                                      : rng_.NextBelow(7);
    switch (style) {
      case 0:
        return token;
      case 1:
        return Blanks() + token + Blanks() +
               (rng_.Bernoulli(0.2) ? "\r" : "");
      case 2:
        return Quoted(token);
      case 3:
        return Quoted(" " + token + "\t");
      case 4:
        return Blanks() + Quoted(token) + Blanks();
      case 5:
        return Quoted(token) + (rng_.Bernoulli(0.5) ? "x" : "\"tail\"");
      default:
        return Quoted(token) + Blanks();
    }
  }

  static std::string Quoted(const std::string& token) {
    std::string out = "\"";
    for (char c : token) {
      if (c == '"') out += '"';
      out += c;
    }
    return out + "\"";
  }

  std::string Blanks() {
    static const char* const kBlanks[] = {"", " ", "  ", "\t", " \t"};
    return kBlanks[rng_.NextBelow(std::size(kBlanks))];
  }

  std::string BlankLines() {
    static const char* const kLines[] = {"\n", "   \n", "\t\r\n", "\r\n",
                                         " \r\n"};
    std::string out;
    while (rng_.Bernoulli(0.1)) {
      out += kLines[rng_.NextBelow(std::size(kLines))];
    }
    return out;
  }

  std::string LineEnd() {
    const uint64_t pick = rng_.NextBelow(20);
    return pick < 15 ? "\n" : pick < 19 ? "\r\n" : "\r\r\n";
  }

  util::Rng rng_;
  char delim_ = ',';
};

TEST(CsvDifferentialTest, MatchesTheLineReaderOnRandomTablesAndMutations) {
  TableWriter writer(0x5eed0c5f);
  Tally tally;
  size_t failures = 0;
  auto check = [&](const std::string& text, const CsvOptions& options,
                   const char* what) {
    const std::string diff = Compare(text, options, &tally);
    if (diff.empty()) return;
    ADD_FAILURE() << what << ": " << diff << "\ndelimiter '"
                  << options.delimiter << "', header " << options.has_header
                  << "\n" << Escaped(text);
    ++failures;
  };
  for (int i = 0; i < 12000 && failures < 5; ++i) {
    CsvOptions options;
    bool valid = false;
    const std::string text = writer.Next(&options, &valid);
    check(text, options, "table");
    if (valid) check(writer.Mutate(text), options, "mutation");
  }
  std::printf("%zu inputs: %zu datasets, %zu errors, %zu repeated names\n",
              tally.inputs, tally.datasets, tally.errors,
              tally.repeated_names);
  EXPECT_GE(tally.inputs, 20000u);
  // Every path is reached: datasets, each kind of fault, and headers the
  // oracle cannot read.
  EXPECT_GT(tally.datasets, tally.inputs / 4);
  EXPECT_GT(tally.repeated_names, 0u);
  for (const char* kind : {"unterminated", "contains no rows", "header only",
                           "fields, expected", "infinite value"}) {
    EXPECT_EQ(tally.faults.count(kind), 1u) << kind;
  }
  EXPECT_EQ(tally.faults.size(), 5u);
}

}  // namespace
}  // namespace sdadcs::data
