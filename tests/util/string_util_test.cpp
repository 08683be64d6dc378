#include "util/string_util.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <string>
#include <vector>

#include "util/number_reference.h"
#include "util/rng.h"

namespace gvex {
namespace {

TEST(SplitTest, SplitsOnDelimiterKeepingEmpties) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(SplitTest, EmptyStringGivesOneEmptyField) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(SplitWhitespaceTest, DropsEmptyFields) {
  auto parts = SplitWhitespace("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitWhitespaceTest, AllWhitespaceIsEmpty) {
  EXPECT_TRUE(SplitWhitespace(" \t\n ").empty());
}

TEST(TrimTest, TrimsBothEnds) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("graph 3 0", "graph"));
  EXPECT_FALSE(StartsWith("gra", "graph"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(StrFormat("no args"), "no args");
}

TEST(LineCursorTest, ReturnsTheLinesSplitReturns) {
  for (const std::string text :
       {"", "\n", "a", "a\n", "a\nb", "a\n\nb\n\n", " x \r\n y"}) {
    const std::vector<std::string> want = Split(text, '\n');
    LineCursor cursor(text);
    std::vector<std::string> got;
    size_t end_of_line = 0;
    std::string_view line;
    while (cursor.Next(&line)) {
      got.emplace_back(line);
      end_of_line += line.size() + 1;
      EXPECT_EQ(cursor.offset(), std::min(end_of_line, text.size()));
      EXPECT_EQ(cursor.lines_read(), got.size());
    }
    EXPECT_EQ(got, want) << text;
    EXPECT_FALSE(cursor.Next(&line));
  }
}

// Trim and the splitters used to ask std::isspace; in the C locale every
// program here runs in, it matches exactly the ASCII set.
TEST(IsAsciiSpaceTest, MatchesIsspaceInTheCLocale) {
  for (int c = 0; c < 256; ++c) {
    EXPECT_EQ(IsAsciiSpace(static_cast<char>(c)), std::isspace(c) != 0) << c;
  }
}

TEST(TrimViewTest, MatchesTrimAndSplitWhitespace) {
  for (const std::string s :
       {"", " ", "a", "  hi  ", "\t a b \v\f\r", "x\ty  z", "\r"}) {
    EXPECT_EQ(std::string(TrimView(s)), Trim(s)) << s;
    std::vector<std::string> fields;
    for (std::string_view f : SplitWhitespaceView(s)) fields.emplace_back(f);
    EXPECT_EQ(fields, SplitWhitespace(s)) << s;
    std::string_view rest = s;
    std::vector<std::string> walked;
    for (std::string_view f = NextField(&rest); !f.empty();
         f = NextField(&rest)) {
      walked.emplace_back(f);
    }
    EXPECT_EQ(walked, fields) << s;
  }
}

// The string_view numeric parsers accept exactly what the strtol-family
// originals in number_reference.h accept, with the same values.
TEST(ParseNumberTest, MatchesTheStrtolOriginals) {
  namespace ref = testing::number_reference;
  std::vector<std::string> corpus = {
      "", " ", "0", "-0", "+0", "7", "+7", "-7", "007", "+-7", "-+7", "--7",
      "++7", "+", "-", " 7", "7 ", "7x", "x7", "0x10", "1e3", "1.5", ".5",
      "5.", "-1.5e-3", "nan", "NAN", "-nan", "inf", "-inf", "infinity",
      "0x1p3", "1e-40", "1e-320", "1e999", "-1e999", "2147483647",
      "2147483648", "-2147483648", "-2147483649", "4294967296",
      "9223372036854775807", "9223372036854775808", "18446744073709551615",
      "18446744073709551616", "-18446744073709551615",
      "99999999999999999999", std::string("5\0", 2), "\t5", "5\n",
      std::string(80, '1'), "0." + std::string(70, '0') + "1"};
  Rng rng(5);
  const char kAlphabet[] = "0123456789+-.eExXpPa nNiIfF";
  for (int i = 0; i < 20000; ++i) {
    std::string s;
    const int len = static_cast<int>(rng.NextUint(12));
    for (int j = 0; j < len; ++j) {
      s += kAlphabet[rng.NextUint(std::strlen(kAlphabet))];
    }
    corpus.push_back(s);
  }
  for (const std::string& s : corpus) {
    int i_want = 11;
    int i_got = 11;
    ASSERT_EQ(ParseInt(s, &i_got), ref::ParseInt(s, &i_want)) << s;
    EXPECT_EQ(i_got, i_want) << s;
    uint64_t u_want = 11;
    uint64_t u_got = 11;
    ASSERT_EQ(ParseUint64(s, &u_got), ref::ParseUint64(s, &u_want)) << s;
    EXPECT_EQ(u_got, u_want) << s;
    double d_want = 11;
    double d_got = 11;
    ASSERT_EQ(ParseDouble(s, &d_got), ref::ParseDouble(s, &d_want)) << s;
    EXPECT_EQ(std::memcmp(&d_got, &d_want, sizeof(double)), 0) << s;
    float f_want = 11;
    float f_got = 11;
    ASSERT_EQ(ParseFloat(s, &f_got), ref::ParseFloat(s, &f_want)) << s;
    EXPECT_EQ(std::memcmp(&f_got, &f_want, sizeof(float)), 0) << s;
  }
}

}  // namespace
}  // namespace gvex
