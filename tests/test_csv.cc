#include "data/csv.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/string_util.h"

namespace foresight {
namespace {

// ---------------------------------------------------------------------------
// Reference reader: the row-at-a-time reader the zero-copy one replaced,
// kept verbatim (tokenize every cell into its own string, infer each column's
// type, then convert). The differential tests below hold the production
// reader, serial and chunked, to its tables and errors.

bool ReferenceIsMissingToken(std::string_view value) {
  std::string lower(Trim(value));
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return lower.empty() || lower == "na" || lower == "n/a" || lower == "nan" ||
         lower == "null" || lower == "none" || lower == "?";
}

/// Splits CSV text into rows of fields, honoring RFC-4180 quoting.
StatusOr<std::vector<std::vector<std::string>>> ReferenceTokenize(
    std::string_view text, char delimiter) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  bool row_had_content = false;
  size_t line = 1;

  auto end_field = [&] {
    row_had_content = row_had_content || field_started || !field.empty();
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_row = [&] {
    end_field();
    // Skip rows with no content at all (blank lines, trailing newline). A
    // lone quoted-empty field ("") counts as content: it is how the writer
    // encodes a null in a single-column table.
    if (row.size() > 1 || !row[0].empty() || row_had_content) {
      rows.push_back(std::move(row));
    }
    row.clear();
    row_had_content = false;
  };

  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        if (c == '\n') ++line;
        field += c;
      }
    } else if (c == '"') {
      if (field.empty() && !field_started) {
        in_quotes = true;
        field_started = true;
      } else {
        field += c;  // Interior quote in an unquoted field: keep literally.
      }
    } else if (c == delimiter) {
      end_field();
    } else if (c == '\n') {
      ++line;
      end_row();
    } else if (c == '\r') {
      // Swallow; handles \r\n and lone \r line endings.
      if (i + 1 >= text.size() || text[i + 1] != '\n') {
        end_row();
      }
    } else {
      field += c;
      field_started = true;
    }
  }
  if (in_quotes) {
    return Status::ParseError("unterminated quoted field (line " +
                              std::to_string(line) + ")");
  }
  if (!field.empty() || field_started || !row.empty()) end_row();
  return rows;
}

bool ReferenceLooksLikeIntegerCodes(
    const std::vector<std::vector<std::string>>& rows, size_t first_data_row,
    size_t col, size_t max_cardinality) {
  std::set<int64_t> distinct;
  for (size_t r = first_data_row; r < rows.size(); ++r) {
    const std::string& token = rows[r][col];
    if (ReferenceIsMissingToken(token)) continue;
    std::optional<int64_t> value = ParseInt64(token);
    if (!value.has_value()) return false;
    distinct.insert(*value);
    if (distinct.size() > max_cardinality) return false;
  }
  return !distinct.empty();
}

StatusOr<DataTable> ReferenceReadString(std::string_view text,
                                        const CsvOptions& options) {
  FORESIGHT_ASSIGN_OR_RETURN(auto rows,
                             ReferenceTokenize(text, options.delimiter));
  if (rows.empty()) {
    return Status::InvalidArgument("CSV input contains no rows");
  }

  size_t num_cols = rows[0].size();
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != num_cols) {
      return Status::ParseError(
          "row " + std::to_string(r + 1) + " has " +
          std::to_string(rows[r].size()) + " fields, expected " +
          std::to_string(num_cols));
    }
  }

  std::vector<std::string> names;
  size_t first_data_row = 0;
  if (options.has_header) {
    first_data_row = 1;
    for (size_t c = 0; c < num_cols; ++c) {
      std::string name(Trim(rows[0][c]));
      if (name.empty()) name = "c" + std::to_string(c);
      names.push_back(std::move(name));
    }
  } else {
    for (size_t c = 0; c < num_cols; ++c) names.push_back("c" + std::to_string(c));
  }
  if (first_data_row >= rows.size()) {
    return Status::InvalidArgument("CSV input contains a header but no data");
  }

  // Infer per-column types: numeric iff every non-missing token parses.
  std::vector<ColumnType> types(num_cols, ColumnType::kNumeric);
  for (size_t c = 0; c < num_cols; ++c) {
    bool all_numeric = true;
    bool any_value = false;
    for (size_t r = first_data_row; r < rows.size(); ++r) {
      const std::string& token = rows[r][c];
      if (ReferenceIsMissingToken(token)) continue;
      any_value = true;
      if (!ParseDouble(token).has_value()) {
        all_numeric = false;
        break;
      }
    }
    if (!all_numeric || !any_value) {
      types[c] = ColumnType::kCategorical;
    } else if (options.integer_codes_as_categorical &&
               ReferenceLooksLikeIntegerCodes(rows, first_data_row, c,
                                     options.max_integer_code_cardinality)) {
      types[c] = ColumnType::kCategorical;
    }
  }

  DataTable table;
  for (size_t c = 0; c < num_cols; ++c) {
    std::unique_ptr<Column> column;
    if (types[c] == ColumnType::kNumeric) {
      auto numeric = std::make_unique<NumericColumn>();
      for (size_t r = first_data_row; r < rows.size(); ++r) {
        const std::string& token = rows[r][c];
        if (ReferenceIsMissingToken(token)) {
          numeric->AppendNull();
        } else {
          double value = *ParseDouble(token);
          if (std::isnan(value)) {
            numeric->AppendNull();
          } else {
            numeric->Append(value);
          }
        }
      }
      column = std::move(numeric);
    } else {
      auto categorical = std::make_unique<CategoricalColumn>();
      for (size_t r = first_data_row; r < rows.size(); ++r) {
        const std::string& token = rows[r][c];
        if (ReferenceIsMissingToken(token)) {
          categorical->AppendNull();
        } else {
          categorical->Append(Trim(token));
        }
      }
      column = std::move(categorical);
    }
    FORESIGHT_RETURN_IF_ERROR(table.AddColumn(names[c], std::move(column)));
  }
  return table;
}

// ---------------------------------------------------------------------------
// Differential tests against the reference reader.

/// Empty when the two results are identical: same status code and message,
/// or same column names, types, validity, bitwise values (null slots
/// included), categorical codes and dictionaries.
std::string Difference(const StatusOr<DataTable>& expected,
                       const StatusOr<DataTable>& actual) {
  if (expected.ok() != actual.ok()) {
    return "expected " +
           (expected.ok() ? std::string("a table")
                          : expected.status().ToString()) +
           ", got " +
           (actual.ok() ? std::string("a table") : actual.status().ToString());
  }
  if (!expected.ok()) {
    if (expected.status().code() != actual.status().code() ||
        expected.status().message() != actual.status().message()) {
      return "expected " + expected.status().ToString() + ", got " +
             actual.status().ToString();
    }
    return "";
  }
  const DataTable& a = *expected;
  const DataTable& b = *actual;
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return "shape " + std::to_string(a.num_rows()) + "x" +
           std::to_string(a.num_columns()) + " vs " +
           std::to_string(b.num_rows()) + "x" + std::to_string(b.num_columns());
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const std::string where = "column " + std::to_string(c) + ": ";
    if (a.column_name(c) != b.column_name(c)) return where + "name";
    const Column& x = a.column(c);
    const Column& y = b.column(c);
    if (x.type() != y.type()) return where + "type";
    if (x.valid_count() != y.valid_count()) return where + "valid count";
    for (size_t r = 0; r < a.num_rows(); ++r) {
      if (x.is_valid(r) != y.is_valid(r)) {
        return where + "validity of row " + std::to_string(r);
      }
    }
    if (x.type() == ColumnType::kNumeric) {
      const std::vector<double>& u = x.AsNumeric().values();
      const std::vector<double>& v = y.AsNumeric().values();
      if (u.size() != v.size() ||
          std::memcmp(u.data(), v.data(), u.size() * sizeof(double)) != 0) {
        return where + "values";
      }
    } else {
      if (x.AsCategorical().codes() != y.AsCategorical().codes()) {
        return where + "codes";
      }
      if (x.AsCategorical().dictionary() != y.AsCategorical().dictionary()) {
        return where + "dictionary";
      }
    }
  }
  return "";
}

std::string Printable(const std::string& text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::vector<CsvOptions> AllOptions() {
  std::vector<CsvOptions> all;
  for (char delimiter : {',', ';', '\t', '|'}) {
    for (bool header : {true, false}) {
      for (bool codes : {false, true}) {
        CsvOptions options;
        options.delimiter = delimiter;
        options.has_header = header;
        options.integer_codes_as_categorical = codes;
        options.max_integer_code_cardinality = 3;
        all.push_back(options);
      }
    }
  }
  return all;
}

/// Checks ReadString and every chunk count from 1 to 6 against the
/// reference; returns false (after reporting) on the first difference.
bool MatchesReference(const std::string& text, const CsvOptions& options) {
  const StatusOr<DataTable> expected = ReferenceReadString(text, options);
  const std::string context =
      "input \"" + Printable(text) + "\" delimiter '" +
      Printable(std::string(1, options.delimiter)) + "' header " +
      std::to_string(options.has_header) + " codes " +
      std::to_string(options.integer_codes_as_categorical);
  std::string diff = Difference(expected, CsvReader::ReadString(text, options));
  if (!diff.empty()) {
    ADD_FAILURE() << "ReadString: " << diff << "\n" << context;
    return false;
  }
  for (size_t chunks = 1; chunks <= 6; ++chunks) {
    diff = Difference(expected, detail::ReadCsvChunked(text, options, chunks));
    if (!diff.empty()) {
      ADD_FAILURE() << chunks << " chunks: " << diff << "\n" << context;
      return false;
    }
  }
  return true;
}

const std::vector<std::string>& EdgeCases() {
  static const std::vector<std::string> cases = {
      // Quoting: delimiters, escaped quotes, quoted newlines, quoted empties.
      "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n\"multi\nline\",2\n",
      "a,b\n\"\",1\n\"\"\"\",2\n\"\"\"\"\"\",3\n",
      "v\n1\n\"\"\n3\n",
      "v\n\"\"\n",
      "\"\"\n",
      "a,b\n\"1\",\"2.5\"\n\" 3 \",\"-4\"\n",
      "a,b\n\"line1\r\nline2\",1\n\"x\ry\",2\n",
      // Interior quotes and text after a closing quote.
      "a,b\nab\"cd,1\n\"ab\"cd,2\n\"ab\" \"x,3\n\"\"x\",4\n",
      "a\nx\"\n\"y\"\"\n",
      // Line endings: CRLF, lone CR, mixed, none at the end.
      "a,b\r\n1,2\r\n3,4\r\n",
      "a,b\r1,2\r3,4\r",
      "a,b\r\n1,2\r3,4\n5,6",
      "a,b\n1,2\r",
      "a,b\r\n\r\n1,2\r\n\r\n",
      // Blank and trailing rows.
      "\n\na,b\n\n1,2\n\n\n3,4\n\n",
      "a,b\n1,2\n,\n",
      "a\n1\n\n\n",
      "a,b,c\n1,,3\n,,\n",
      // Every missing marker, mixed case and padded.
      "x,y\n1,NA\n,hello\nna,world\n N/a ,n/A\nNaN,nAn\nNULL,null\n"
      "None,nOnE\n?, ? \n\t,  \n5,x\n",
      "x\nNA\n\"n/a\"\n\" none \"\n",
      // Number spellings.
      "v\n+1.5\n-nan\ninf\n-inf\nInfinity\n1e308\n1e309\n-0\n0x10\n",
      "v\n+1.5\n-2.25\n 3 \n4e-2\n",
      "v\nnan\n-nan\n+nan\n",
      "v\n1.5\n+\n",
      "v\n1\n2\nabc\n3\n",
      "v,w\n1,a\n2,3\n\"x\",4\n5,6\n",
      // Integer codes.
      "code,value\n1,0.5\n2,1.5\n1,2.5\n2,3.5\n",
      "code\n1\n+1\n01\n2\n3\n4\n",
      "code\n1\n1.0\n2\n",
      "code\n99999999999999999999\n1\n",
      "code\n-nan\n1\n",
      // Ragged rows, also after and before an unterminated quote.
      "a,b\n1,2\n3\n",
      "a,b\n1,2\n3,4,5\n6,7\n",
      "a,b\n1\n\"open,2\n",
      "a,b\n\"open,2\n",
      "\"open",
      "a\n\"x\"\"",
      // No rows, header only, duplicate names, blank names.
      "",
      "\n\r\n\n",
      "only_header\n",
      "a,a\n1,2\n",
      " a , ,\"\"\n1,2,3\n",
      // The other delimiters inside fields.
      "a;b|c\td\n1;2|3\t4\n\"x;y\";\"p|q\"\n",
      "a|b\n1|2\n\"|\"|3\n",
      "a\tb\n1\t2\n \t\n",
  };
  return cases;
}

TEST(CsvDifferentialTest, EdgeCasesMatchReference) {
  for (const std::string& text : EdgeCases()) {
    for (const CsvOptions& options : AllOptions()) {
      ASSERT_TRUE(MatchesReference(text, options));
    }
  }
}

TEST(CsvDifferentialTest, UnusualDelimitersMatchReference) {
  for (const std::string& text : EdgeCases()) {
    for (char delimiter : {'"', '\n', '\r', ' ', 'a'}) {
      CsvOptions options;
      options.delimiter = delimiter;
      ASSERT_TRUE(MatchesReference(text, options));
    }
  }
}

TEST(CsvDifferentialTest, CutsInsideQuotedFieldsFallBackToSerial) {
  // A quoted field whose contents look like rows: a chunk that started inside
  // it would read those as data. Every cut lands inside the quotes for some
  // chunk count, so the tables only match if those parses are discarded.
  std::string text = "name,value\nfirst,1\n\"";
  for (int i = 0; i < 40; ++i) text += std::to_string(i) + ",fake\n";
  text += "\",2\nlast,3\n";
  for (const CsvOptions& options : AllOptions()) {
    if (options.delimiter != ',') continue;
    ASSERT_TRUE(MatchesReference(text, options));
  }
  const StatusOr<DataTable> table = detail::ReadCsvChunked(text, {}, 4);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 3u);
  // Many quoted newlines spread through the text.
  std::string spread = "a,b\n";
  for (int i = 0; i < 30; ++i) {
    spread += "\"q\n" + std::to_string(i) + "\"," + std::to_string(i) + "\n";
  }
  ASSERT_TRUE(MatchesReference(spread, {}));
}

TEST(CsvDifferentialTest, ColumnTypeDecidedAcrossChunks) {
  // The lone string sits in the last chunk, the lone value in another; both
  // columns must come out categorical, rebuilt from their numeric chunks.
  std::string text = "late,sparse,codes\n";
  for (int i = 0; i < 200; ++i) {
    text += std::to_string(i) + "," + (i == 50 ? "7" : "NA") + "," +
            std::to_string(i % 3) + "\n";
  }
  text += "word,,1\n";
  for (size_t chunks = 1; chunks <= 8; ++chunks) {
    const StatusOr<DataTable> table =
        detail::ReadCsvChunked(text, {}, chunks);
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(table->schema().column(0).type, ColumnType::kCategorical);
    EXPECT_EQ(table->schema().column(1).type, ColumnType::kNumeric);
  }
  for (const CsvOptions& options : AllOptions()) {
    if (options.delimiter != ',') continue;
    ASSERT_TRUE(MatchesReference(text, options));
  }
}

/// Random CSV text from a seeded generator: mostly well-formed tables whose
/// cells mix numbers, missing markers, strings and quoted fields, with random
/// line endings, blank rows, ragged rows and unterminated quotes mixed in.
std::string RandomCsv(std::mt19937_64& rng, char delimiter) {
  auto pick = [&](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };
  static const std::vector<std::string> kCells = {
      "1",     "-2",     "+3",   "0.5",  "1e3",   "-nan",  "inf",   "007",
      "NA",    " na ",   "N/A",  "NaN",  "null",  "NONE",  "?",     "",
      " ",     "abc",    "x y",  "a\"b", "12a",   "+",     "-0",    "3.25",
      "\"q\"", "\"\"",   "\"a\"\"b\"", "\"1\"", "\"p\"s", "\" 4 \"",
      "\"l1\nl2\"", "\"c\r\nd\"", "\"\r\"", "\"x,y\"", "\"u;v|w\tz\"", "2"};
  static const std::vector<std::string> kEnds = {"\n", "\n", "\n", "\r\n",
                                                 "\r"};
  const size_t columns = 1 + pick(4);
  const size_t rows = pick(12);
  // Mostly-numeric columns, so that type inference and demotion both run.
  std::vector<size_t> numeric_bias(columns);
  for (size_t c = 0; c < columns; ++c) numeric_bias[c] = pick(3);
  std::string text;
  for (size_t r = 0; r < rows; ++r) {
    if (pick(10) == 0) text += kEnds[pick(kEnds.size())];  // blank row
    size_t width = columns;
    if (pick(25) == 0) width = 1 + pick(5);  // ragged row
    for (size_t c = 0; c < width; ++c) {
      if (c > 0) text += delimiter;
      if (r > 0 && c < columns && numeric_bias[c] > 0 && pick(8) != 0) {
        text += std::to_string(static_cast<int>(pick(7)) - 2);
      } else {
        text += kCells[pick(kCells.size())];
      }
    }
    if (r + 1 < rows || pick(2) == 0) text += kEnds[pick(kEnds.size())];
  }
  if (pick(30) == 0) text += "\"unterminated";
  return text;
}

TEST(CsvDifferentialTest, RandomInputsMatchReference) {
  std::mt19937_64 rng(20171017);
  static constexpr char kDelimiters[] = {',', ';', '\t', '|'};
  for (int i = 0; i < 1500; ++i) {
    CsvOptions options;
    options.delimiter = kDelimiters[i % 4];
    options.has_header = (i / 4) % 2 == 0;
    options.integer_codes_as_categorical = (i / 8) % 2 == 0;
    options.max_integer_code_cardinality = 1 + static_cast<size_t>(i % 5);
    const std::string text = RandomCsv(rng, options.delimiter);
    ASSERT_TRUE(MatchesReference(text, options)) << "case " << i;
  }
}

/// A table of about `bytes` bytes of CSV; with `quoted_newlines`, one label
/// in seven is a quoted two-line field.
std::string LargeCsv(size_t bytes, bool quoted_newlines) {
  std::string text = "id,x,label,code\n";
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> value(-1e6, 1e6);
  while (text.size() < bytes) {
    const uint64_t r = rng();
    const std::string label = quoted_newlines && r % 7 == 0
                                  ? "\"multi\nline\""
                                  : "l" + std::to_string(r % 13);
    text += std::to_string(r % 100000) + "," + FormatDouble(value(rng), 17) +
            "," + label + "," + (r % 11 == 0 ? "NA" : std::to_string(r % 5)) +
            "\n";
  }
  return text;
}

TEST(CsvDifferentialTest, LargeInputsMatchReference) {
  // Above the parallel threshold ReadString chunks the text itself.
  CsvOptions options;
  options.integer_codes_as_categorical = true;
  options.max_integer_code_cardinality = 5;
  for (bool quoted_newlines : {false, true}) {
    const std::string text = LargeCsv(size_t{5} << 20, quoted_newlines);
    for (const CsvOptions& o : {CsvOptions{}, options}) {
      const StatusOr<DataTable> expected = ReferenceReadString(text, o);
      EXPECT_EQ(Difference(expected, CsvReader::ReadString(text, o)), "");
      EXPECT_EQ(Difference(expected, detail::ReadCsvChunked(text, o, 4)), "");
    }
  }
}

TEST(CsvReaderTest, ParsesHeaderAndTypes) {
  auto table = CsvReader::ReadString("name,age,score\nalice,30,1.5\nbob,25,2.5\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->num_columns(), 3u);
  EXPECT_EQ(table->schema().column(0).type, ColumnType::kCategorical);
  EXPECT_EQ(table->schema().column(1).type, ColumnType::kNumeric);
  EXPECT_EQ(table->schema().column(2).type, ColumnType::kNumeric);
  EXPECT_EQ(table->column(0).AsCategorical().value(1), "bob");
  EXPECT_DOUBLE_EQ(table->column(2).AsNumeric().value(0), 1.5);
}

TEST(CsvReaderTest, HandlesMissingMarkers) {
  auto table = CsvReader::ReadString("x,y\n1,NA\n,hello\n3,world\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->column(0).null_count(), 1u);
  EXPECT_FALSE(table->column(0).is_valid(1));
  EXPECT_FALSE(table->column(1).is_valid(0));
  EXPECT_EQ(table->column(1).AsCategorical().value(1), "hello");
}

TEST(CsvReaderTest, QuotedFieldsWithDelimitersAndQuotes) {
  auto table = CsvReader::ReadString(
      "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n\"multi\nline\",2\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->column(0).AsCategorical().value(0), "x,y");
  EXPECT_EQ(table->column(1).AsCategorical().value(0), "he said \"hi\"");
  EXPECT_EQ(table->column(0).AsCategorical().value(1), "multi\nline");
}

TEST(CsvReaderTest, NoHeaderGeneratesNames) {
  CsvOptions options;
  options.has_header = false;
  auto table = CsvReader::ReadString("1,2\n3,4\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->column_name(0), "c0");
  EXPECT_EQ(table->column_name(1), "c1");
  EXPECT_EQ(table->num_rows(), 2u);
}

TEST(CsvReaderTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = ';';
  auto table = CsvReader::ReadString("a;b\n1;2\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_columns(), 2u);
  EXPECT_DOUBLE_EQ(table->column(1).AsNumeric().value(0), 2.0);
}

TEST(CsvReaderTest, CrLfLineEndings) {
  auto table = CsvReader::ReadString("a,b\r\n1,2\r\n3,4\r\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(table->column(0).AsNumeric().value(1), 3.0);
}

TEST(CsvReaderTest, IntegerCodesAsCategorical) {
  CsvOptions options;
  options.integer_codes_as_categorical = true;
  options.max_integer_code_cardinality = 3;
  auto table = CsvReader::ReadString("code,value\n1,0.5\n2,1.5\n1,2.5\n2,3.5\n",
                                     options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().column(0).type, ColumnType::kCategorical);
  // 'value' has 4 distinct doubles (non-integers), stays numeric.
  EXPECT_EQ(table->schema().column(1).type, ColumnType::kNumeric);
}

TEST(CsvReaderTest, RaggedRowsAreAnError) {
  auto table = CsvReader::ReadString("a,b\n1,2\n3\n");
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kParseError);
}

TEST(CsvReaderTest, UnterminatedQuoteIsAnError) {
  auto table = CsvReader::ReadString("a,b\n\"open,2\n");
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kParseError);
}

TEST(CsvReaderTest, EmptyInputIsAnError) {
  EXPECT_FALSE(CsvReader::ReadString("").ok());
  EXPECT_FALSE(CsvReader::ReadString("only_header\n").ok());
}

TEST(CsvReaderTest, AllMissingColumnBecomesCategorical) {
  auto table = CsvReader::ReadString("a,b\nNA,1\n,2\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().column(0).type, ColumnType::kCategorical);
  EXPECT_EQ(table->column(0).null_count(), 2u);
}

TEST(CsvReaderTest, EmbeddedNewlineInsideQuotesDoesNotSplitRow) {
  // The quoted field spans a physical newline; both rows must keep 2 fields.
  auto table = CsvReader::ReadString("a,b\n\"line1\nline2\",1\nplain,2\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->column(0).AsCategorical().value(0), "line1\nline2");
}

TEST(CsvReaderTest, QuotedEmptyFieldCountsAsRowContent) {
  // A lone "" line is a present-but-empty field (read back as null), not a
  // blank line to skip — the writer relies on this for single-column nulls.
  auto table = CsvReader::ReadString("v\n1\n\"\"\n3\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 3u);
  EXPECT_FALSE(table->column(0).is_valid(1));
}

TEST(CsvReaderTest, BlankLinesAreStillSkipped) {
  auto table = CsvReader::ReadString("a,b\n1,2\n\n\n3,4\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
}

TEST(CsvReaderTest, MissingFileIsIOError) {
  auto table = CsvReader::ReadFile("/nonexistent/path.csv");
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIOError);
}

TEST(CsvReaderTest, FileWithoutSizeIsReadToItsEnd) {
  // A FIFO reports no size up front, so ReadFile streams it instead of
  // reading a buffer of the file's size.
  const std::string path = testing::TempDir() + "/foresight_csv_test.fifo";
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&path] {
    std::ofstream out(path, std::ios::binary);
    out << "a,b\n1,x\n2,y\n";
  });
  auto table = CsvReader::ReadFile(path);
  writer.join();
  std::remove(path.c_str());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->column(1).AsCategorical().value(1), "y");
}

TEST(CsvRoundTripTest, WriteThenReadPreservesData) {
  DataTable table;
  NumericColumn numeric;
  numeric.Append(1.25);
  numeric.AppendNull();
  numeric.Append(-3.5);
  ASSERT_TRUE(
      table.AddColumn("num", std::make_unique<NumericColumn>(std::move(numeric)))
          .ok());
  ASSERT_TRUE(
      table.AddCategoricalColumn("cat", {"plain", "with,comma", "with\"quote"})
          .ok());

  std::string csv = CsvWriter::WriteString(table);
  auto reread = CsvReader::ReadString(csv);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->num_rows(), 3u);
  EXPECT_EQ(reread->schema().column(0).type, ColumnType::kNumeric);
  EXPECT_DOUBLE_EQ(reread->column(0).AsNumeric().value(0), 1.25);
  EXPECT_FALSE(reread->column(0).is_valid(1));
  EXPECT_EQ(reread->column(1).AsCategorical().value(1), "with,comma");
  EXPECT_EQ(reread->column(1).AsCategorical().value(2), "with\"quote");
}

TEST(CsvRoundTripTest, SingleColumnNullsSurviveRoundTrip) {
  // Fuzzer-found: a null in a single-column table used to serialize as an
  // entirely empty line, which the reader then skipped as blank — dropping
  // the row. The writer now emits a quoted-empty field instead.
  DataTable table;
  NumericColumn numeric;
  numeric.Append(1.0);
  numeric.AppendNull();
  numeric.Append(3.0);
  ASSERT_TRUE(
      table.AddColumn("v", std::make_unique<NumericColumn>(std::move(numeric)))
          .ok());

  std::string csv = CsvWriter::WriteString(table);
  auto reread = CsvReader::ReadString(csv);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->num_rows(), 3u);
  EXPECT_FALSE(reread->column(0).is_valid(1));
  EXPECT_DOUBLE_EQ(reread->column(0).AsNumeric().value(2), 3.0);
}

TEST(CsvRoundTripTest, FileRoundTrip) {
  DataTable table;
  ASSERT_TRUE(table.AddNumericColumn("x", {1, 2, 3}).ok());
  std::string path = testing::TempDir() + "/foresight_csv_test.csv";
  ASSERT_TRUE(CsvWriter::WriteFile(table, path).ok());
  auto reread = CsvReader::ReadFile(path);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->num_rows(), 3u);
}

}  // namespace
}  // namespace foresight
