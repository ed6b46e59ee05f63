#include "data/csv.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "util/string_util.h"
#include "util/thread_pool.h"

namespace foresight {

namespace {

/// Inputs of at least this many bytes are parsed in row chunks, one per
/// hardware thread; below it, starting the threads costs more than it saves.
constexpr size_t kParallelMinBytes = size_t{4} << 20;

/// Splits CSV text into rows of fields. The dialect:
///  - A field that opens with a quote is quoted: delimiters and newlines in it
///    are literal and "" is an escaped quote. Characters after its closing
///    quote are kept literally ("ab"cd reads as abcd).
///  - A quote inside an unquoted field is kept literally.
///  - \n, \r\n and a lone \r end a row.
///  - Rows with no content (blank lines, a trailing newline) are skipped; a
///    lone quoted-empty field ("") is content, which is how the writer
///    encodes a null in a single-column table.
/// Unquoted fields are views into the text. Quoted fields are unescaped into
/// an arena that is reused from row to row, so the views NextRow returns are
/// valid until the next call.
class CsvTokenizer {
 public:
  /// Tokenizes text[begin, text.size()).
  CsvTokenizer(std::string_view text, char delimiter, size_t begin = 0)
      : text_(text),
        // A quote is never a delimiter: it is checked first.
        delimiter_(delimiter == '"' ? -1
                                    : static_cast<unsigned char>(delimiter)),
        pos_(begin) {}

  /// Reads the next row with content into `fields`. Returns false at the end
  /// of the text, or when the text ends inside a quoted field (see
  /// unterminated()).
  bool NextRow(std::vector<std::string_view>* fields);

  /// Offset of the next unread character.
  size_t position() const { return pos_; }
  bool unterminated() const { return unterminated_; }
  /// The error for unterminated(). Its line number counts from `begin`, so it
  /// is only reported by tokenizers that start at the top of the text.
  Status UnterminatedError() const {
    return Status::ParseError("unterminated quoted field (line " +
                              std::to_string(line_) + ")");
  }

 private:
  /// Offset of the first delimiter, \n or \r at or after `pos` (or the end).
  size_t ScanUnquoted(size_t pos) const {
    const char* p = text_.data() + pos;
    const char* const end = text_.data() + text_.size();
    // Eight bytes at a time: a byte equals a stop byte iff XOR-ing the word
    // with that byte broadcast leaves a zero byte there. The lowest flagged
    // byte is always a true match (false flags only sit above one).
    constexpr uint64_t kOnes = 0x0101010101010101ull;
    constexpr uint64_t kHighs = 0x8080808080808080ull;
    const uint64_t delimiters =
        kOnes * static_cast<unsigned char>(delimiter_ < 0 ? '\n' : delimiter_);
    auto zero_bytes = [](uint64_t x) { return (x - kOnes) & ~x & kHighs; };
    while (end - p >= 8) {
      uint64_t word;
      std::memcpy(&word, p, sizeof(word));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
      word = __builtin_bswap64(word);
#endif
      const uint64_t hits = zero_bytes(word ^ delimiters) |
                            zero_bytes(word ^ (kOnes * '\n')) |
                            zero_bytes(word ^ (kOnes * '\r'));
      if (hits != 0) {
        return static_cast<size_t>(p - text_.data()) +
               static_cast<size_t>(std::countr_zero(hits) / 8);
      }
      p += 8;
    }
    while (p != end) {
      const int c = static_cast<unsigned char>(*p);
      if (c == delimiter_ || c == '\n' || c == '\r') break;
      ++p;
    }
    return static_cast<size_t>(p - text_.data());
  }

  /// Unescapes a quoted field's contents, from just past its opening quote
  /// to just past its closing one, into `out`. False if the text ends first.
  bool ReadQuoted(std::string* out);

  std::string_view text_;
  int delimiter_;
  size_t pos_;
  size_t line_ = 1;
  bool unterminated_ = false;
  /// Reused unescaping buffers for the current row's quoted fields. A deque
  /// so that growing it leaves earlier buffers (and views into them) alone.
  std::deque<std::string> arena_;
};

bool CsvTokenizer::ReadQuoted(std::string* out) {
  for (;;) {
    const size_t quote = text_.find('"', pos_);
    const size_t stop = quote == std::string_view::npos ? text_.size() : quote;
    const std::string_view run = text_.substr(pos_, stop - pos_);
    line_ += static_cast<size_t>(std::count(run.begin(), run.end(), '\n'));
    out->append(run);
    if (quote == std::string_view::npos) {
      pos_ = text_.size();
      return false;
    }
    if (quote + 1 < text_.size() && text_[quote + 1] == '"') {
      out->push_back('"');
      pos_ = quote + 2;
    } else {
      pos_ = quote + 1;
      return true;
    }
  }
}

bool CsvTokenizer::NextRow(std::vector<std::string_view>* fields) {
  const size_t n = text_.size();
  while (pos_ < n) {
    fields->clear();
    size_t quoted_fields = 0;
    bool has_content = false;
    for (;;) {
      if (pos_ < n && text_[pos_] == '"') {
        if (quoted_fields == arena_.size()) arena_.emplace_back();
        std::string& field = arena_[quoted_fields++];
        field.clear();
        ++pos_;
        if (!ReadQuoted(&field)) {
          unterminated_ = true;
          return false;
        }
        const size_t end = ScanUnquoted(pos_);
        field.append(text_.substr(pos_, end - pos_));
        pos_ = end;
        fields->push_back(field);
        has_content = true;
      } else {
        const size_t end = ScanUnquoted(pos_);
        has_content = has_content || end > pos_;
        fields->push_back(text_.substr(pos_, end - pos_));
        pos_ = end;
      }
      if (pos_ == n) break;
      int c = static_cast<unsigned char>(text_[pos_++]);
      if (c == delimiter_) continue;
      if (c == '\r' && pos_ < n && text_[pos_] == '\n') {
        // The \r of \r\n is dropped; the \n decides (it may be the delimiter).
        ++pos_;
        c = '\n';
        if (c == delimiter_) continue;
      }
      if (c == '\n') ++line_;
      break;
    }
    if (has_content || fields->size() > 1) return true;
  }
  return false;
}

/// One column of one chunk while it is parsed: numeric until the first
/// non-missing token that does not parse as a number, categorical after.
struct ColumnBuilder {
  bool numeric = true;
  /// A non-missing token was seen.
  bool any_value = false;
  NumericColumn values;
  CategoricalColumn strings;
  /// CsvOptions::integer_codes_as_categorical: every token so far parsed as
  /// an integer, and `codes` (capped at the option's cardinality + 1) holds
  /// the distinct ones.
  bool integer_codes = true;
  std::set<int64_t> codes;
};

/// The rows of text[begin, end) and their columns.
struct Chunk {
  size_t begin = 0;
  size_t end = 0;
  size_t rows = 0;
  std::vector<ColumnBuilder> columns;
  /// The first row whose field count differs from the first row's, as
  /// (row within the chunk, field count). Cells stop being stored there.
  std::optional<std::pair<size_t, size_t>> ragged;
  /// The text ended inside a quoted field.
  bool unterminated = false;
};

void AppendCategorical(CategoricalColumn& column, std::string_view field) {
  const std::string_view token = Trim(field);
  if (IsMissingToken(token)) {
    column.AppendNull();
  } else {
    column.Append(token);
  }
}

/// Re-reads the rows of text[begin, end) — all of which have every field —
/// and rebuilds the listed columns of `chunk` as categorical from their own
/// fields.
void RebuildAsCategorical(std::string_view text, char delimiter, size_t begin,
                          size_t end, const std::vector<size_t>& columns,
                          Chunk& chunk) {
  for (size_t c : columns) chunk.columns[c] = ColumnBuilder{};
  CsvTokenizer tokenizer(text.substr(0, end), delimiter, begin);
  std::vector<std::string_view> fields;
  while (tokenizer.NextRow(&fields)) {
    FORESIGHT_DCHECK(fields.size() == chunk.columns.size());
    for (size_t c : columns) {
      AppendCategorical(chunk.columns[c].strings, fields[c]);
    }
  }
  for (size_t c : columns) {
    chunk.columns[c].numeric = false;
    chunk.columns[c].any_value = true;
  }
}

/// Parses the rows `tokenizer` yields up to the end of its text into
/// `chunk`, each cell once, straight into its column.
void ParseRows(std::string_view text, const CsvOptions& options,
               size_t num_columns, CsvTokenizer& tokenizer, Chunk& chunk) {
  chunk.columns.resize(num_columns);
  std::vector<std::string_view> fields;
  for (;;) {
    const size_t row_begin = tokenizer.position();
    if (!tokenizer.NextRow(&fields)) break;
    // After a ragged row, keep reading: an unterminated quote further on is
    // the error to report.
    if (chunk.ragged.has_value()) continue;
    if (fields.size() != num_columns) {
      chunk.ragged.emplace(chunk.rows, fields.size());
      continue;
    }
    for (size_t c = 0; c < num_columns; ++c) {
      ColumnBuilder& column = chunk.columns[c];
      const std::string_view token = Trim(fields[c]);
      if (column.numeric) {
        if (IsMissingToken(token)) {
          column.values.AppendNull();
          continue;
        }
        column.any_value = true;
        if (std::optional<double> value = ParseDouble(token)) {
          if (std::isnan(*value)) {
            column.values.AppendNull();
          } else {
            column.values.Append(*value);
          }
          if (options.integer_codes_as_categorical && column.integer_codes) {
            std::optional<int64_t> code = ParseInt64(token);
            if (code.has_value()) column.codes.insert(*code);
            if (!code.has_value() ||
                column.codes.size() > options.max_integer_code_cardinality) {
              column.integer_codes = false;
              column.codes.clear();
            }
          }
          continue;
        }
        RebuildAsCategorical(text, options.delimiter, chunk.begin, row_begin,
                             {c}, chunk);
      }
      AppendCategorical(column.strings, token);
    }
    ++chunk.rows;
  }
  chunk.unterminated = tokenizer.unterminated();
}

/// Splits text[begin, end) into at most `num_chunks` ranges of about equal
/// size, each cut just after a newline.
std::vector<Chunk> SplitAtNewlines(std::string_view text, size_t begin,
                                   size_t num_chunks) {
  std::vector<Chunk> chunks;
  const size_t span = text.size() - begin;
  size_t start = begin;
  for (size_t k = 1; k < num_chunks; ++k) {
    const size_t target = std::max(start, begin + span / num_chunks * k);
    const size_t newline = text.find('\n', target);
    if (newline == std::string_view::npos) break;
    chunks.emplace_back();
    chunks.back().begin = start;
    chunks.back().end = start = newline + 1;
  }
  chunks.emplace_back();
  chunks.back().begin = start;
  chunks.back().end = text.size();
  return chunks;
}

/// A column is an integer-coded categorical when all of its non-missing
/// tokens parse as integers and there are few distinct ones.
bool LooksLikeIntegerCodes(const std::vector<Chunk>& chunks, size_t c,
                           size_t max_cardinality) {
  std::set<int64_t> distinct;
  for (const Chunk& chunk : chunks) {
    const ColumnBuilder& column = chunk.columns[c];
    if (!column.integer_codes) return false;
    distinct.insert(column.codes.begin(), column.codes.end());
    if (distinct.size() > max_cardinality) return false;
  }
  return !distinct.empty();
}

/// Column `c` of the whole text: its chunks' columns, concatenated in row
/// order. Each chunk's column is released once copied.
std::unique_ptr<Column> ConcatenateChunks(std::vector<Chunk>& chunks,
                                          size_t c) {
  ColumnBuilder& first = chunks[0].columns[c];
  if (first.numeric) {
    auto column = std::make_unique<NumericColumn>(std::move(first.values));
    for (size_t k = 1; k < chunks.size(); ++k) {
      column->AppendColumn(chunks[k].columns[c].values);
      chunks[k].columns[c] = ColumnBuilder{};
    }
    return column;
  }
  auto column = std::make_unique<CategoricalColumn>(std::move(first.strings));
  for (size_t k = 1; k < chunks.size(); ++k) {
    column->AppendColumn(chunks[k].columns[c].strings);
    chunks[k].columns[c] = ColumnBuilder{};
  }
  return column;
}

/// Runs fn(0) .. fn(n - 1), on `pool` when there is one.
void ForEachIndex(ThreadPool* pool, size_t n,
                  const std::function<void(size_t)>& fn) {
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->ParallelFor(0, n, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

/// The read path. The text is parsed in (at most) `num_chunks` row chunks;
/// the result is the same for every count.
///
/// Chunked parsing is speculative: each chunk is parsed as if it started
/// outside a quoted field. That holds for all of them exactly when every
/// chunk also ends outside one; otherwise the text is parsed again serially.
StatusOr<DataTable> ReadCsv(std::string_view text, const CsvOptions& options,
                            size_t num_chunks) {
  // A newline delimiter splits fields, so a cut after one is not a row end.
  if (options.delimiter == '\n') num_chunks = 1;

  // The first row gives the column count, and the names.
  CsvTokenizer tokenizer(text, options.delimiter);
  std::vector<std::string_view> first_row;
  if (!tokenizer.NextRow(&first_row)) {
    if (tokenizer.unterminated()) return tokenizer.UnterminatedError();
    return Status::InvalidArgument("CSV input contains no rows");
  }
  const size_t num_columns = first_row.size();
  std::vector<std::string> names;
  names.reserve(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    std::string name = options.has_header ? std::string(Trim(first_row[c]))
                                          : std::string();
    if (name.empty()) name = "c" + std::to_string(c);
    names.push_back(std::move(name));
  }
  // Without a header the first row is data and is read again.
  const size_t data_begin = options.has_header ? tokenizer.position() : 0;
  if (!options.has_header) tokenizer = CsvTokenizer(text, options.delimiter);

  std::vector<Chunk> chunks = SplitAtNewlines(text, data_begin, num_chunks);
  std::optional<ThreadPool> pool;
  if (chunks.size() == 1) {
    ParseRows(text, options, num_columns, tokenizer, chunks[0]);
    if (chunks[0].unterminated) return tokenizer.UnterminatedError();
  } else {
    pool.emplace(std::min<size_t>(
        chunks.size(), std::max(1u, std::thread::hardware_concurrency())));
    ForEachIndex(&*pool, chunks.size(), [&](size_t k) {
      Chunk& chunk = chunks[k];
      CsvTokenizer chunk_tokenizer(text.substr(0, chunk.end), options.delimiter,
                                   chunk.begin);
      ParseRows(text, options, num_columns, chunk_tokenizer, chunk);
    });
    for (const Chunk& chunk : chunks) {
      if (chunk.unterminated) return ReadCsv(text, options, 1);
    }
  }

  // Rows are numbered from 1, the header included.
  size_t rows_read = options.has_header ? 1 : 0;
  for (const Chunk& chunk : chunks) {
    if (chunk.ragged.has_value()) {
      return Status::ParseError(
          "row " + std::to_string(rows_read + chunk.ragged->first + 1) +
          " has " + std::to_string(chunk.ragged->second) +
          " fields, expected " + std::to_string(num_columns));
    }
    rows_read += chunk.rows;
  }
  if (options.has_header && rows_read == 1) {
    return Status::InvalidArgument("CSV input contains a header but no data");
  }

  // A column is numeric iff every chunk found it numeric and it has a value;
  // chunks that disagree are rebuilt from their own fields.
  std::vector<std::vector<size_t>> rebuild(chunks.size());
  for (size_t c = 0; c < num_columns; ++c) {
    bool numeric = true;
    bool any_value = false;
    for (const Chunk& chunk : chunks) {
      numeric = numeric && chunk.columns[c].numeric;
      any_value = any_value || chunk.columns[c].any_value;
    }
    if (numeric && any_value &&
        !(options.integer_codes_as_categorical &&
          LooksLikeIntegerCodes(chunks, c,
                                options.max_integer_code_cardinality))) {
      continue;
    }
    for (size_t k = 0; k < chunks.size(); ++k) {
      ColumnBuilder& column = chunks[k].columns[c];
      if (!column.numeric) continue;
      if (column.any_value) {
        rebuild[k].push_back(c);
      } else {
        column = ColumnBuilder{};
        column.numeric = false;
        for (size_t r = 0; r < chunks[k].rows; ++r) column.strings.AppendNull();
      }
    }
  }
  ForEachIndex(pool ? &*pool : nullptr, chunks.size(), [&](size_t k) {
    if (rebuild[k].empty()) return;
    RebuildAsCategorical(text, options.delimiter, chunks[k].begin,
                         chunks[k].end, rebuild[k], chunks[k]);
  });

  // Concatenate each column's chunks in row order, releasing them as it goes.
  std::vector<std::unique_ptr<Column>> columns(num_columns);
  ForEachIndex(pool ? &*pool : nullptr, num_columns, [&](size_t c) {
    columns[c] = ConcatenateChunks(chunks, c);
  });
  DataTable table;
  for (size_t c = 0; c < num_columns; ++c) {
    FORESIGHT_RETURN_IF_ERROR(table.AddColumn(names[c], std::move(columns[c])));
  }
  return table;
}

}  // namespace

namespace detail {

StatusOr<DataTable> ReadCsvChunked(std::string_view text,
                                   const CsvOptions& options,
                                   size_t num_chunks) {
  return ReadCsv(text, options, std::max<size_t>(1, num_chunks));
}

}  // namespace detail

StatusOr<DataTable> CsvReader::ReadString(std::string_view text,
                                          const CsvOptions& options) {
  size_t num_chunks = 1;
  if (text.size() >= kParallelMinBytes) {
    num_chunks = std::max(1u, std::thread::hardware_concurrency());
  }
  return ReadCsv(text, options, num_chunks);
}

StatusOr<DataTable> CsvReader::ReadFile(const std::string& path,
                                        const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open file: " + path);
  }
  // One read into a buffer of the file's size; streams that have no size
  // (pipes, devices) are read to their end instead.
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  if (error) {
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    return ReadString(text, options);
  }
  auto buffer = std::make_unique_for_overwrite<char[]>(size);
  in.read(buffer.get(), static_cast<std::streamsize>(size));
  return ReadString(
      std::string_view(buffer.get(), static_cast<size_t>(in.gcount())),
      options);
}

namespace {

std::string QuoteIfNeeded(const std::string& field, char delimiter) {
  bool needs_quote = field.find(delimiter) != std::string::npos ||
                     field.find('"') != std::string::npos ||
                     field.find('\n') != std::string::npos ||
                     field.find('\r') != std::string::npos;
  if (!needs_quote) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string CsvWriter::WriteString(const DataTable& table,
                                   const CsvOptions& options) {
  std::string out;
  if (options.has_header) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += options.delimiter;
      out += QuoteIfNeeded(table.column_name(c), options.delimiter);
    }
    out += '\n';
  }
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += options.delimiter;
      const Column& col = table.column(c);
      if (!col.is_valid(r)) {
        // Empty field encodes null — except in a single-column table, where
        // an entirely empty line would be dropped as blank on re-read; a
        // quoted-empty field survives the round trip.
        if (table.num_columns() == 1) out += "\"\"";
        continue;
      }
      if (col.type() == ColumnType::kNumeric) {
        out += FormatDouble(col.AsNumeric().value(r), 17);
      } else {
        out += QuoteIfNeeded(col.AsCategorical().value(r), options.delimiter);
      }
    }
    out += '\n';
  }
  return out;
}

Status CsvWriter::WriteFile(const DataTable& table, const std::string& path,
                            const CsvOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IOError("cannot open file for writing: " + path);
  }
  out << WriteString(table, options);
  if (!out) {
    return Status::IOError("failed writing file: " + path);
  }
  return Status::OK();
}

}  // namespace foresight
