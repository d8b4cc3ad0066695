#ifndef SDADCS_DATA_CSV_H_
#define SDADCS_DATA_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace sdadcs::data {

/// Options controlling CSV ingestion.
struct CsvOptions {
  char delimiter = ',';
  /// First line holds attribute names. Without a header, attributes are
  /// named attr_0, attr_1, ...
  bool has_header = true;
  /// Tokens (after trimming) treated as missing, in addition to the empty
  /// string.
  std::vector<std::string> missing_tokens = {"?", "NA", "nan", "NaN"};
  /// A column is inferred continuous only if every non-missing value
  /// parses as a number. Set to force specific columns categorical by
  /// name (useful for integer-coded categories).
  std::vector<std::string> force_categorical;
};

/// Parses CSV text into a Dataset, inferring each column's type: a column
/// where every non-missing field parses as a number (util::ParseDouble)
/// and at least one does becomes continuous, otherwise categorical.
/// Lines end at '\n' and lose one '\r' before it; blank lines are
/// skipped. Fields follow RFC-4180 quoting within one line; unquoted
/// fields are trimmed. The first fault in this order is reported, as an
/// InvalidArgument: an unterminated quoted field on any line, no rows, a
/// header only, a row of the wrong width, a header naming a column twice,
/// and an infinite number in a continuous column (`inf`, `-inf`, or a
/// literal that overflows such as `1e999`), named by row, column and
/// field. The text is walked twice: once parsing number columns into
/// place, once interning the categorical ones; no per-field string is
/// built.
util::StatusOr<Dataset> ReadCsvString(std::string_view text,
                                      const CsvOptions& options = {});

/// Reads a CSV file into one buffer and parses it with ReadCsvString. A
/// path that cannot be opened or read (a directory, say) is an IoError
/// naming it.
util::StatusOr<Dataset> ReadCsvFile(const std::string& path,
                                    const CsvOptions& options = {});

/// Serializes a Dataset back to CSV (header + rows; missing values are
/// written as empty fields).
std::string WriteCsvString(const Dataset& db, char delimiter = ',');

/// Writes CSV to a file.
util::Status WriteCsvFile(const Dataset& db, const std::string& path,
                          char delimiter = ',');

}  // namespace sdadcs::data

#endif  // SDADCS_DATA_CSV_H_
