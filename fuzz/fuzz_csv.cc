// Fuzz harness for CsvReader::ReadString (data/csv.cc), the entry point for
// user-supplied datasets.
//
// The first input byte selects parser options (delimiter, header, integer
// coding) so one corpus covers the option space deterministically; the rest
// is the CSV text.
//
// Invariants checked beyond "does not crash":
//   - Chunked parsing equals serial parsing: splitting the text into 2, 3 or
//     4 row chunks gives the same table (names, types, validity, bitwise
//     values, categorical codes and dictionaries) or the same error status.
//   - CsvWriter is CsvReader's inverse: a table that parsed must write out
//     and re-parse with the same shape (rows x columns).
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "data/csv.h"
#include "util/logging.h"

namespace {

bool SameTable(const foresight::DataTable& a, const foresight::DataTable& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const foresight::Column& x = a.column(c);
    const foresight::Column& y = b.column(c);
    if (a.column_name(c) != b.column_name(c) || x.type() != y.type()) {
      return false;
    }
    for (size_t r = 0; r < a.num_rows(); ++r) {
      if (x.is_valid(r) != y.is_valid(r)) return false;
    }
    if (x.type() == foresight::ColumnType::kNumeric) {
      const std::vector<double>& u = x.AsNumeric().values();
      const std::vector<double>& v = y.AsNumeric().values();
      if (std::memcmp(u.data(), v.data(), u.size() * sizeof(double)) != 0) {
        return false;
      }
    } else if (x.AsCategorical().codes() != y.AsCategorical().codes() ||
               x.AsCategorical().dictionary() !=
                   y.AsCategorical().dictionary()) {
      return false;
    }
  }
  return true;
}

bool SameResult(const foresight::StatusOr<foresight::DataTable>& a,
                const foresight::StatusOr<foresight::DataTable>& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) {
    return a.status().code() == b.status().code() &&
           a.status().message() == b.status().message();
  }
  return SameTable(*a, *b);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  foresight::CsvOptions options;
  if (size > 0) {
    static constexpr char kDelimiters[] = {',', ';', '\t', '|'};
    options.delimiter = kDelimiters[data[0] & 3];
    options.has_header = (data[0] & 4) != 0;
    options.integer_codes_as_categorical = (data[0] & 8) != 0;
    options.max_integer_code_cardinality = 1 + (data[0] >> 4);
    ++data;
    --size;
  }
  std::string_view text(reinterpret_cast<const char*>(data), size);

  foresight::StatusOr<foresight::DataTable> table =
      foresight::CsvReader::ReadString(text, options);
  for (size_t chunks = 2; chunks <= 4; ++chunks) {
    FORESIGHT_CHECK(SameResult(
        table, foresight::detail::ReadCsvChunked(text, options, chunks)));
  }
  if (!table.ok()) return 0;

  std::string written = foresight::CsvWriter::WriteString(*table, options);
  foresight::StatusOr<foresight::DataTable> reread =
      foresight::CsvReader::ReadString(written, options);
  FORESIGHT_CHECK(reread.ok());
  FORESIGHT_CHECK(reread->num_rows() == table->num_rows());
  FORESIGHT_CHECK(reread->num_columns() == table->num_columns());
  return 0;
}
