#ifndef FORESIGHT_DATA_CSV_H_
#define FORESIGHT_DATA_CSV_H_

#include <string>
#include <string_view>

#include "data/table.h"
#include "util/status.h"

namespace foresight {

/// Options controlling CSV parsing and type inference.
struct CsvOptions {
  char delimiter = ',';
  /// First row holds column names. When false, columns are named "c0", "c1"...
  bool has_header = true;
  /// A column whose non-missing tokens all parse as numbers becomes numeric,
  /// UNLESS it has at most this many distinct integer values AND
  /// `integer_codes_as_categorical` is set (useful for coded survey data).
  bool integer_codes_as_categorical = false;
  size_t max_integer_code_cardinality = 12;
};

/// RFC-4180-style CSV reader with automatic type inference.
///
/// - Quoted fields may contain delimiters, escaped quotes ("") and newlines.
/// - Conventional missing markers (empty, NA, N/A, NaN, null, none, ?) become
///   nulls.
/// - A column is numeric iff every non-missing token parses as a double;
///   otherwise it is categorical.
///
/// The text is read once, fields are not copied unless quoted, and each cell
/// is parsed once, straight into its column. Large inputs are parsed in
/// parallel row chunks; the table and any error are the same either way
/// (DESIGN.md "CSV ingestion").
class CsvReader {
 public:
  /// Parses CSV text into a table.
  static StatusOr<DataTable> ReadString(std::string_view text,
                                        const CsvOptions& options = {});

  /// Reads and parses a CSV file.
  static StatusOr<DataTable> ReadFile(const std::string& path,
                                      const CsvOptions& options = {});
};

namespace detail {

/// CsvReader::ReadString with the text split into at most `num_chunks` row
/// chunks whatever its size, so tests and fuzzers reach the chunked path on
/// small inputs. The result does not depend on `num_chunks`.
StatusOr<DataTable> ReadCsvChunked(std::string_view text,
                                   const CsvOptions& options,
                                   size_t num_chunks);

}  // namespace detail

/// CSV writer, the inverse of CsvReader: nulls are written as empty fields,
/// fields containing the delimiter, quotes or newlines are quoted.
class CsvWriter {
 public:
  static std::string WriteString(const DataTable& table,
                                 const CsvOptions& options = {});
  static Status WriteFile(const DataTable& table, const std::string& path,
                          const CsvOptions& options = {});
};

}  // namespace foresight

#endif  // FORESIGHT_DATA_CSV_H_
