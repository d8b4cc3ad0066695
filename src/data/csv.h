#ifndef SDADCS_DATA_CSV_H_
#define SDADCS_DATA_CSV_H_

#include <string>
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
/// where every non-missing field parses as a number becomes continuous,
/// otherwise categorical. An infinite number in a continuous column
/// (`inf`, `-inf`, or a literal that overflows such as `1e999`) is an
/// InvalidArgument naming its row, column and field.
util::StatusOr<Dataset> ReadCsvString(const std::string& text,
                                      const CsvOptions& options = {});

/// Reads and parses a CSV file.
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
