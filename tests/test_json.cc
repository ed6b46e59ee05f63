#include "util/json.h"

#include <cmath>

#include <chrono>
#include <string>

#include <gtest/gtest.h>

namespace foresight {
namespace {

TEST(JsonValueTest, ScalarTypes) {
  EXPECT_TRUE(JsonValue().is_null());
  EXPECT_TRUE(JsonValue(true).is_bool());
  EXPECT_TRUE(JsonValue(3.5).is_number());
  EXPECT_TRUE(JsonValue("hi").is_string());
  EXPECT_TRUE(JsonValue::Array().is_array());
  EXPECT_TRUE(JsonValue::Object().is_object());
}

TEST(JsonValueTest, ObjectPreservesInsertionOrder) {
  JsonValue obj = JsonValue::Object();
  obj.Set("zebra", 1);
  obj.Set("apple", 2);
  obj.Set("mango", 3);
  EXPECT_EQ(obj.items()[0].first, "zebra");
  EXPECT_EQ(obj.items()[1].first, "apple");
  EXPECT_EQ(obj.items()[2].first, "mango");
}

TEST(JsonValueTest, SetOverwritesExistingKey) {
  JsonValue obj = JsonValue::Object();
  obj.Set("k", 1);
  obj.Set("k", 2);
  EXPECT_EQ(obj.size(), 1u);
  EXPECT_EQ(obj.Get("k")->as_number(), 2.0);
}

TEST(JsonValueTest, GetReturnsNullptrForMissing) {
  JsonValue obj = JsonValue::Object();
  EXPECT_EQ(obj.Get("absent"), nullptr);
  EXPECT_FALSE(obj.Has("absent"));
}

TEST(JsonDumpTest, CompactOutput) {
  JsonValue obj = JsonValue::Object();
  obj.Set("name", "foresight");
  obj.Set("version", 1);
  obj.Set("enabled", true);
  JsonValue arr = JsonValue::Array();
  arr.Append(1);
  arr.Append(2.5);
  obj.Set("values", std::move(arr));
  EXPECT_EQ(obj.Dump(),
            R"({"name":"foresight","version":1,"enabled":true,"values":[1,2.5]})");
}

TEST(JsonDumpTest, EscapesSpecialCharacters) {
  JsonValue v(std::string("a\"b\\c\nd\te"));
  EXPECT_EQ(v.Dump(), "\"a\\\"b\\\\c\\nd\\te\"");
}

TEST(JsonDumpTest, NanAndInfinityBecomeNull) {
  EXPECT_EQ(JsonValue(std::nan("")).Dump(), "null");
  EXPECT_EQ(JsonValue(1.0 / 0.0).Dump(), "null");
}

TEST(JsonDumpTest, IntegersHaveNoDecimalPoint) {
  EXPECT_EQ(JsonValue(42).Dump(), "42");
  EXPECT_EQ(JsonValue(-7.0).Dump(), "-7");
}

TEST(JsonParseTest, ParsesScalars) {
  EXPECT_TRUE(JsonValue::Parse("null")->is_null());
  EXPECT_EQ(JsonValue::Parse("true")->as_bool(), true);
  EXPECT_EQ(JsonValue::Parse("false")->as_bool(), false);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-2.5e3")->as_number(), -2500.0);
  EXPECT_EQ(JsonValue::Parse("\"abc\"")->as_string(), "abc");
}

TEST(JsonParseTest, ParsesNestedStructure) {
  auto result = JsonValue::Parse(R"({"a": [1, {"b": "c"}], "d": null})");
  ASSERT_TRUE(result.ok());
  const JsonValue& v = *result;
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.Get("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->at(0).as_number(), 1.0);
  EXPECT_EQ(a->at(1).Get("b")->as_string(), "c");
  EXPECT_TRUE(v.Get("d")->is_null());
}

TEST(JsonParseTest, ParsesEscapes) {
  auto result = JsonValue::Parse(R"("line1\nline2\t\"quoted\"A")");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->as_string(), "line1\nline2\t\"quoted\"A");
}

TEST(JsonParseTest, ParsesUnicodeEscapeMultibyte) {
  auto result = JsonValue::Parse(R"("é")");  // é
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->as_string(), "\xc3\xa9");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":}").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("12abc").ok());
  EXPECT_FALSE(JsonValue::Parse("{} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("{'single':1}").ok());
}

TEST(JsonParseTest, RejectsExcessiveNestingDepth) {
  // Fuzzer-style stress input: parsing recurses per nesting level, so
  // unbounded depth would exhaust the stack. Must be a ParseError.
  std::string deep(100000, '[');
  deep += std::string(100000, ']');
  auto result = JsonValue::Parse(deep);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);

  // Moderate nesting stays fine.
  std::string shallow(100, '[');
  shallow += "1";
  shallow += std::string(100, ']');
  EXPECT_TRUE(JsonValue::Parse(shallow).ok());
}

TEST(JsonParseTest, RejectsOverflowingNumbers) {
  // "1e999" overflows to infinity, which Dump() can only emit as null — the
  // parser rejects it so accepted documents stay a serialization fixed point.
  EXPECT_FALSE(JsonValue::Parse("1e999").ok());
  EXPECT_FALSE(JsonValue::Parse("-1e999").ok());
  EXPECT_FALSE(JsonValue::Parse("[1, 2, 1e999]").ok());
  // The largest finite doubles still parse.
  EXPECT_TRUE(JsonValue::Parse("1.7976931348623157e308").ok());
  EXPECT_TRUE(JsonValue::Parse("-1.7976931348623157e308").ok());
  // Underflow collapses to zero rather than erroring.
  EXPECT_TRUE(JsonValue::Parse("1e-999").ok());
}

TEST(JsonParseTest, RejectsDuplicateKeys) {
  // Top level, nested, and past the pairwise-compare size (sorted check).
  std::string many = "{";
  for (int i = 0; i < 40; ++i) many += "\"k" + std::to_string(i) + "\":1,";
  many += "\"k7\":2}";
  for (const std::string& text :
       {std::string("{\"class\":\"skew\",\"class\":\"nope\"}"),
        std::string("{\"a\":[{\"b\":1,\"c\":2,\"b\":3}]}"), many}) {
    auto result = JsonValue::Parse(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << text;
  }
  // Distinct keys that share prefixes and lengths are not duplicates.
  EXPECT_TRUE(JsonValue::Parse("{\"ab\":1,\"ba\":2,\"a\":3,\"b\":4}").ok());
}

TEST(JsonParseTest, ManyKeyObjectParsesQuickly) {
  // A ~1 MB body of distinct keys: quadratic key scanning took tens of
  // seconds here; the bound is generous for sanitizer builds.
  constexpr int kKeys = 100000;
  std::string text = "{";
  for (int i = 0; i < kKeys; ++i) {
    if (i > 0) text += ',';
    text += "\"key" + std::to_string(i) + "\":0";
  }
  text += '}';
  auto start = std::chrono::steady_clock::now();
  auto result = JsonValue::Parse(text);
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), static_cast<size_t>(kKeys));
  EXPECT_EQ(result->items().back().first, "key99999");
  EXPECT_LT(seconds, 10.0);
}

TEST(JsonParseTest, ErrorsCarryParseErrorCode) {
  auto result = JsonValue::Parse("{bad}");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(JsonRoundTripTest, DumpThenParseIsIdentity) {
  JsonValue obj = JsonValue::Object();
  obj.Set("text", "with \"quotes\" and\nnewlines");
  obj.Set("number", 3.14159);
  obj.Set("flag", false);
  JsonValue inner = JsonValue::Array();
  inner.Append(JsonValue());
  inner.Append("x");
  obj.Set("arr", std::move(inner));

  auto reparsed = JsonValue::Parse(obj.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->Dump(), obj.Dump());
}

TEST(JsonRoundTripTest, PrettyPrintedOutputReparses) {
  JsonValue obj = JsonValue::Object();
  obj.Set("a", 1);
  JsonValue arr = JsonValue::Array();
  arr.Append(true);
  obj.Set("b", std::move(arr));
  std::string pretty = obj.Dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  auto reparsed = JsonValue::Parse(pretty);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->Dump(), obj.Dump());
}

}  // namespace
}  // namespace foresight
