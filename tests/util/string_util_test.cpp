#include "util/string_util.h"

#include <gtest/gtest.h>

namespace hotspot::util {
namespace {

TEST(Split, Basic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, PreservesEmptyFields) {
  const auto parts = split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Split, NoDelimiter) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(FormatDouble, Decimals) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.5, 3), "2.500");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(FormatCount, ThousandsSeparators) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(17096), "17,096");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(-2524), "-2,524");
}

TEST(ParseInteger, WholeTextInRange) {
  EXPECT_EQ(parse_integer("42", 0, 100), 42);
  EXPECT_EQ(parse_integer("-7", -10, 10), -7);
  EXPECT_EQ(parse_integer("0", 0, 0), 0);
  EXPECT_EQ(parse_integer("101", 0, 100), std::nullopt);
  EXPECT_EQ(parse_integer("99999999999999999999", 0, 100), std::nullopt);
}

TEST(ParseInteger, RejectsEverythingButDigits) {
  for (const char* text : {"", " 5", "\t7", "5 ", "+5", "5x", "0x10", "4.0",
                           "-0", "-"}) {
    EXPECT_EQ(parse_integer(text, 0, 100), std::nullopt) << '"' << text << '"';
  }
}

TEST(ParseFiniteDouble, DecimalAndScientific) {
  EXPECT_EQ(parse_finite_double("0.5"), 0.5);
  EXPECT_EQ(parse_finite_double("-2"), -2.0);
  EXPECT_EQ(parse_finite_double("1e-3"), 1e-3);
  for (const char* text : {"", " 1", "+1", "1 ", "0x1p-1", "inf", "nan",
                           "1e999", "1,5"}) {
    EXPECT_EQ(parse_finite_double(text), std::nullopt) << '"' << text << '"';
  }
}

}  // namespace
}  // namespace hotspot::util
