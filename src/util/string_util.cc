#include "util/string_util.h"

#include <array>
#include <cctype>
#include <cstring>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace foresight {

std::vector<std::string> Split(std::string_view input, char delimiter) {
  std::vector<std::string> result;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == delimiter) {
      result.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return result;
}

std::string_view Trim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string result;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) result.append(separator);
    result.append(parts[i]);
  }
  return result;
}

std::optional<double> ParseDouble(std::string_view input) {
  std::string_view trimmed = Trim(input);
  if (trimmed.empty()) return std::nullopt;
  // std::from_chars for double is available in libstdc++ >= 11.
  double value = 0.0;
  const char* first = trimmed.data();
  const char* last = trimmed.data() + trimmed.size();
  // from_chars rejects a leading '+'; accept it manually.
  if (*first == '+' && trimmed.size() > 1) ++first;
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

std::optional<int64_t> ParseInt64(std::string_view input) {
  std::string_view trimmed = Trim(input);
  if (trimmed.empty()) return std::nullopt;
  int64_t value = 0;
  const char* first = trimmed.data();
  const char* last = trimmed.data() + trimmed.size();
  if (*first == '+' && trimmed.size() > 1) ++first;
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

bool IsMissingToken(std::string_view value) {
  // Dispatch on length so each cell is compared against at most two markers,
  // in place: the CSV reader calls this once per cell.
  const std::string_view token = Trim(value);
  switch (token.size()) {
    case 0:
      return true;
    case 1:
      return token[0] == '?';
    case 2:
      return EqualsIgnoreCase(token, "na");
    case 3:
      return EqualsIgnoreCase(token, "n/a") || EqualsIgnoreCase(token, "nan");
    case 4:
      return EqualsIgnoreCase(token, "null") || EqualsIgnoreCase(token, "none");
    default:
      return false;
  }
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string FormatDouble(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
  return buffer;
}

uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

namespace {

// Reflected CRC-64 tables for the ECMA-182 polynomial 0x42F0E1EBA9EA3693
// (reflected form 0xC96C5795D7870F42), built once on first use. Eight
// slice-by-8 tables: table[0] is the classic bytewise table, and
// table[k][b] = the CRC of byte b followed by k zero bytes, so eight input
// bytes fold into the accumulator per step (~6x faster than bytewise on the
// multi-MB snapshot payloads this guards; identical output).
using Crc64Tables = std::array<std::array<uint64_t, 256>, 8>;

const Crc64Tables& Crc64Table() {
  static const Crc64Tables kTables = [] {
    Crc64Tables tables{};
    for (uint64_t i = 0; i < 256; ++i) {
      uint64_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xC96C5795D7870F42ull : 0);
      }
      tables[0][i] = crc;
    }
    for (size_t slice = 1; slice < 8; ++slice) {
      for (size_t i = 0; i < 256; ++i) {
        const uint64_t prev = tables[slice - 1][i];
        tables[slice][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
    return tables;
  }();
  return kTables;
}

}  // namespace

uint64_t Crc64(std::string_view data) {
  const Crc64Tables& t = Crc64Table();
  uint64_t crc = ~0ull;
  size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    uint64_t chunk = 0;
    std::memcpy(&chunk, data.data() + i, 8);
    // Bytes are consumed in increasing address order regardless of host
    // endianness: chunk's low byte on a little-endian host is data[i].
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    chunk = __builtin_bswap64(chunk);
#endif
    crc ^= chunk;
    crc = t[7][crc & 0xFFu] ^ t[6][(crc >> 8) & 0xFFu] ^
          t[5][(crc >> 16) & 0xFFu] ^ t[4][(crc >> 24) & 0xFFu] ^
          t[3][(crc >> 32) & 0xFFu] ^ t[2][(crc >> 40) & 0xFFu] ^
          t[1][(crc >> 48) & 0xFFu] ^ t[0][(crc >> 56) & 0xFFu];
  }
  for (; i < data.size(); ++i) {
    crc = t[0][(crc ^ static_cast<unsigned char>(data[i])) & 0xFFu] ^
          (crc >> 8);
  }
  return ~crc;
}

}  // namespace foresight
