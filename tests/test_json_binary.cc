// Tests for the FJB1 binary JsonValue codec (util/json_binary.h): lossless
// round-trips (including bit-exact doubles, which the text dumper cannot
// always promise), packed numeric arrays, and the hostile-input contract —
// every malformed byte string must come back as a Status, never a crash or
// an attacker-sized allocation.
#include "util/json_binary.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/json.h"

namespace foresight {
namespace {

std::string Encode(const JsonValue& value) { return JsonBinaryEncode(value); }

JsonValue DecodeOrDie(const std::string& bytes) {
  auto decoded = JsonBinaryDecode(bytes);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return std::move(decoded).value();
}

TEST(JsonBinaryTest, RoundTripsScalars) {
  for (const char* text :
       {"null", "true", "false", "0", "-1.5", "3.25", "\"\"", "\"hello\"",
        "\"quote\\\"and\\\\slash\""}) {
    auto parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    JsonValue back = DecodeOrDie(Encode(*parsed));
    EXPECT_EQ(back.Dump(), parsed->Dump()) << text;
  }
}

TEST(JsonBinaryTest, RoundTripsNestedDocuments) {
  const char* text =
      R"({"a": [1, 2.5, -3], "b": {"c": "nested", "d": [true, null, "x"]},)"
      R"( "empty_array": [], "empty_object": {}, "s": "tail"})";
  auto parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok());
  JsonValue back = DecodeOrDie(Encode(*parsed));
  EXPECT_EQ(back.Dump(), parsed->Dump());
}

TEST(JsonBinaryTest, DoublesAreBitExact) {
  // The whole point of the binary path: values that lose digits (or flip
  // their last bit) through a text round-trip survive exactly.
  const double values[] = {
      0.1,
      1.0 / 3.0,
      std::nextafter(1.0, 2.0),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      -0.0,
  };
  JsonValue array = JsonValue::Array();
  for (double v : values) array.Append(v);
  JsonValue back = DecodeOrDie(Encode(array));
  ASSERT_TRUE(back.is_array());
  ASSERT_EQ(back.size(), std::size(values));
  for (size_t i = 0; i < std::size(values); ++i) {
    uint64_t expected_bits = 0;
    uint64_t actual_bits = 0;
    const double expected = values[i];
    const double actual = back.at(i).as_number();
    static_assert(sizeof(expected_bits) == sizeof(expected));
    std::memcpy(&expected_bits, &expected, sizeof(expected));
    std::memcpy(&actual_bits, &actual, sizeof(actual));
    EXPECT_EQ(actual_bits, expected_bits) << "index " << i;
  }
}

TEST(JsonBinaryTest, PackedArraysRoundTripThroughBothShapes) {
  // All-number arrays take the packed tag; mixed arrays take the general
  // one. Both must decode to the same logical value.
  JsonValue packed = JsonValue::Array();
  for (int i = 0; i < 100; ++i) packed.Append(i * 0.25);
  JsonValue mixed = JsonValue::Array();
  for (int i = 0; i < 10; ++i) mixed.Append(i * 0.25);
  mixed.Append("not a number");

  EXPECT_EQ(DecodeOrDie(Encode(packed)).Dump(), packed.Dump());
  EXPECT_EQ(DecodeOrDie(Encode(mixed)).Dump(), mixed.Dump());
  // The packed encoding must actually be packed: 100 doubles ~ 800 bytes,
  // far below any per-element-tagged encoding of the same content.
  EXPECT_LT(Encode(packed).size(), 100 * 9 + 16);
}

TEST(JsonBinaryTest, RejectsEmptyAndTrailingBytes) {
  EXPECT_FALSE(JsonBinaryDecode("").ok());
  std::string bytes = Encode(JsonValue(1.0));
  bytes.push_back('\0');
  EXPECT_FALSE(JsonBinaryDecode(bytes).ok());
}

TEST(JsonBinaryTest, RejectsUnknownTags) {
  for (int tag = 0x08; tag < 0x100; tag += 17) {
    std::string bytes(1, static_cast<char>(tag));
    EXPECT_FALSE(JsonBinaryDecode(bytes).ok()) << tag;
  }
}

TEST(JsonBinaryTest, RejectsCountLargerThanRemainingBytes) {
  // A packed array claiming 2^40 doubles in a 16-byte input must be
  // rejected before any allocation sized from the claim.
  std::string bomb;
  bomb.push_back(0x07);  // packed f64 array
  // Varint for 2^40: five 0x80|x bytes then terminator.
  const uint8_t varint[] = {0x80, 0x80, 0x80, 0x80, 0x80, 0x20};
  for (uint8_t b : varint) bomb.push_back(static_cast<char>(b));
  bomb.append(8, '\0');
  EXPECT_FALSE(JsonBinaryDecode(bomb).ok());

  std::string array_bomb;
  array_bomb.push_back(0x05);  // general array
  for (uint8_t b : varint) array_bomb.push_back(static_cast<char>(b));
  EXPECT_FALSE(JsonBinaryDecode(array_bomb).ok());
}

TEST(JsonBinaryTest, RejectsNonCanonicalVarints) {
  // 1 encoded as a padded two-byte varint (0x81 0x00) must be rejected:
  // every value has exactly one encoding, so encoded bytes are comparable.
  std::string bytes;
  bytes.push_back(0x04);  // string tag
  bytes.push_back(static_cast<char>(0x81));
  bytes.push_back('\0');
  bytes.push_back('a');
  EXPECT_FALSE(JsonBinaryDecode(bytes).ok());
}

TEST(JsonBinaryTest, RejectsDuplicateObjectKeys) {
  JsonValue object = JsonValue::Object();
  object.Set("k", 1.0);
  std::string bytes = Encode(object);
  // Splice the single-entry object into a two-entry one with the same key
  // twice: tag, count=2, then the key/value pair duplicated.
  const std::string entry = bytes.substr(2);
  std::string doubled;
  doubled.push_back(0x06);
  doubled.push_back(0x02);
  doubled += entry;
  doubled += entry;
  auto top = JsonBinaryDecode(doubled);
  ASSERT_FALSE(top.ok());
  EXPECT_EQ(top.status().code(), StatusCode::kInvalidArgument);
  // Nested: {"outer": <the doubled object>}.
  std::string nested = {0x06, 0x01, 0x05};
  nested += "outer";
  nested += doubled;
  auto inner = JsonBinaryDecode(nested);
  ASSERT_FALSE(inner.ok());
  EXPECT_EQ(inner.status().code(), StatusCode::kInvalidArgument);
}

TEST(JsonBinaryTest, ManyKeyObjectDecodesQuickly) {
  // Quadratic duplicate-key scanning would take tens of seconds here; the
  // bound is generous for sanitizer builds.
  constexpr int kKeys = 100000;
  std::vector<std::pair<std::string, JsonValue>> members;
  for (int i = 0; i < kKeys; ++i) {
    members.emplace_back("key" + std::to_string(i), JsonValue(0.0));
  }
  auto object = JsonValue::ObjectFromMembers(std::move(members));
  ASSERT_TRUE(object.ok()) << object.status();
  const std::string bytes = Encode(*object);
  auto start = std::chrono::steady_clock::now();
  auto decoded = JsonBinaryDecode(bytes);
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->size(), static_cast<size_t>(kKeys));
  EXPECT_LT(seconds, 10.0);
}

TEST(JsonBinaryTest, RejectsDepthBombs) {
  // Build [ [ [ ... [] ] ] ]: alternating tag + count=1, innermost empty.
  // The root sits at depth 0, so `levels` nested arrays reach depth
  // levels - 1; the decoder rejects depth > kJsonBinaryMaxDepth.
  auto nested_arrays = [](size_t levels) {
    std::string bytes;
    for (size_t i = 0; i + 1 < levels; ++i) {
      bytes.push_back(0x05);
      bytes.push_back(0x01);
    }
    bytes.push_back(0x05);
    bytes.push_back(0x00);
    return bytes;
  };
  EXPECT_TRUE(JsonBinaryDecode(nested_arrays(kJsonBinaryMaxDepth)).ok());
  EXPECT_TRUE(JsonBinaryDecode(nested_arrays(kJsonBinaryMaxDepth + 1)).ok());
  EXPECT_FALSE(
      JsonBinaryDecode(nested_arrays(kJsonBinaryMaxDepth + 2)).ok());
  // Far past the limit must still be a clean error, not a stack overflow.
  EXPECT_FALSE(JsonBinaryDecode(nested_arrays(100000)).ok());
}

TEST(JsonBinaryTest, TruncatedPayloadsAlwaysError) {
  auto parsed = JsonValue::Parse(
      R"({"a": [1, 2, 3], "b": "text", "c": {"d": true}})");
  ASSERT_TRUE(parsed.ok());
  const std::string bytes = Encode(*parsed);
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(JsonBinaryDecode(bytes.substr(0, len)).ok())
        << "prefix " << len;
  }
}

TEST(JsonBinaryTest, BitFlippedPayloadsNeverCrash) {
  auto parsed = JsonValue::Parse(
      R"({"doc": [1.5, 2.5, 3.5], "meta": {"name": "x", "flag": true},)"
      R"( "list": [null, "s", [4, 5]]})");
  ASSERT_TRUE(parsed.ok());
  const std::string bytes = Encode(*parsed);
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      auto decoded = JsonBinaryDecode(flipped);
      if (!decoded.ok()) continue;
      // Accepted mutants must re-encode cleanly (decode is total on its
      // accepted set).
      (void)JsonBinaryEncode(*decoded);
    }
  }
}

}  // namespace
}  // namespace foresight
