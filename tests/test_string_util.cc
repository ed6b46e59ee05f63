#include "util/string_util.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

namespace foresight {
namespace {

TEST(SplitTest, SplitsAndKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  abc \t\n"), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" a b "), "a b");
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(ParseDoubleTest, ParsesValidNumbers) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-2e3"), -2000.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("  7 "), 7.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("+4.25"), 4.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("0"), 0.0);
}

TEST(ParseDoubleTest, RejectsInvalidInput) {
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("abc").has_value());
  EXPECT_FALSE(ParseDouble("3.5x").has_value());
  EXPECT_FALSE(ParseDouble("1 2").has_value());
  EXPECT_FALSE(ParseDouble("--3").has_value());
}

TEST(ParseInt64Test, ParsesAndRejects) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("-17"), -17);
  EXPECT_EQ(*ParseInt64("+8"), 8);
  EXPECT_FALSE(ParseInt64("3.5").has_value());
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64("12a").has_value());
}

TEST(IsMissingTokenTest, RecognizesConventionalMarkers) {
  EXPECT_TRUE(IsMissingToken(""));
  EXPECT_TRUE(IsMissingToken("   "));
  EXPECT_TRUE(IsMissingToken("NA"));
  EXPECT_TRUE(IsMissingToken("n/a"));
  EXPECT_TRUE(IsMissingToken("NaN"));
  EXPECT_TRUE(IsMissingToken("NULL"));
  EXPECT_TRUE(IsMissingToken("None"));
  EXPECT_TRUE(IsMissingToken("?"));
  EXPECT_FALSE(IsMissingToken("0"));
  EXPECT_FALSE(IsMissingToken("nap"));
  EXPECT_FALSE(IsMissingToken("value"));
}

TEST(IsMissingTokenTest, EveryMarkerInEveryCaseAndPadding) {
  const std::vector<std::string> markers = {"na",   "n/a",  "nan", "null",
                                            "none", "?",    ""};
  const std::vector<std::string> pads = {"", " ", "\t", "  \r\n "};
  for (const std::string& marker : markers) {
    // Every upper/lower-case combination of the marker's letters.
    for (unsigned mask = 0; mask < (1u << marker.size()); ++mask) {
      std::string variant = marker;
      for (size_t i = 0; i < variant.size(); ++i) {
        if ((mask >> i) & 1u) {
          variant[i] = static_cast<char>(
              std::toupper(static_cast<unsigned char>(variant[i])));
        }
      }
      for (const std::string& left : pads) {
        for (const std::string& right : pads) {
          EXPECT_TRUE(IsMissingToken(left + variant + right))
              << "'" << left + variant + right << "'";
        }
      }
    }
  }
  // Near misses of every marker length stay values.
  for (const char* value : {"n", "a", "/", "nA/", "n/aa", "nana", "nul",
                            "nulls", "non", "nones", "??", "n a", "0", "-"}) {
    EXPECT_FALSE(IsMissingToken(value)) << value;
  }
}

TEST(EqualsIgnoreCaseTest, ComparesAsciiCaseInsensitively) {
  EXPECT_TRUE(EqualsIgnoreCase("AbC", "abc"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "ab"));
}

TEST(FormatDoubleTest, ProducesCompactRepresentation) {
  EXPECT_EQ(FormatDouble(0.5), "0.5");
  EXPECT_EQ(FormatDouble(100.0), "100");
  EXPECT_EQ(FormatDouble(-2.25, 3), "-2.25");
}

}  // namespace
}  // namespace foresight
