#include "util/json.h"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <string>

#include "support/test_support.h"

namespace hotspot::util {
namespace {

JsonValue parse_ok(const std::string& text) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(parse_json(text, doc, error)) << error;
  return doc;
}

void expect_parse_fails(const std::string& text) {
  JsonValue doc;
  std::string error;
  EXPECT_FALSE(parse_json(text, doc, error)) << "accepted: " << text;
  EXPECT_FALSE(error.empty());
}

TEST(JsonParser, Scalars) {
  EXPECT_TRUE(parse_ok("null").is_null());
  EXPECT_TRUE(parse_ok("true").as_bool());
  EXPECT_FALSE(parse_ok("false").as_bool());
  EXPECT_DOUBLE_EQ(parse_ok("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse_ok("-3.25").as_number(), -3.25);
  EXPECT_DOUBLE_EQ(parse_ok("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(parse_ok("2.5E-2").as_number(), 0.025);
  EXPECT_EQ(parse_ok("\"hello\"").as_string(), "hello");
}

TEST(JsonParser, RoundTripsSeventeenDigitDoubles) {
  // The precision our %.17g writers emit must survive.
  const double value = 0.1234567890123456789;
  EXPECT_DOUBLE_EQ(parse_ok("0.12345678901234568").as_number(), value);
}

TEST(JsonParser, StringEscapes) {
  EXPECT_EQ(parse_ok("\"a\\\"b\\\\c\"").as_string(), "a\"b\\c");
  EXPECT_EQ(parse_ok("\"line\\nbreak\\ttab\"").as_string(),
            "line\nbreak\ttab");
  EXPECT_EQ(parse_ok("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(parse_ok("\"\\u00e9\"").as_string(), "\xC3\xA9");  // é in UTF-8
}

TEST(JsonParser, ArraysAndObjects) {
  const JsonValue doc =
      parse_ok("{\"a\": [1, 2, 3], \"b\": {\"nested\": true}, \"c\": []}");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.size(), 3u);
  const JsonValue* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->size(), 3u);
  EXPECT_DOUBLE_EQ(a->as_array()[2].as_number(), 3.0);
  EXPECT_TRUE(doc.find("b")->find("nested")->as_bool());
  EXPECT_EQ(doc.find("c")->size(), 0u);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParser, ObjectOrderPreservedAndDuplicatesKeepLast) {
  const JsonValue doc = parse_ok("{\"k\": 1, \"j\": 2, \"k\": 3}");
  ASSERT_EQ(doc.as_object().size(), 3u);
  EXPECT_EQ(doc.as_object()[0].first, "k");
  EXPECT_EQ(doc.as_object()[1].first, "j");
  EXPECT_DOUBLE_EQ(doc.find("k")->as_number(), 3.0);
}

TEST(JsonParser, WhitespaceTolerated) {
  EXPECT_TRUE(parse_ok(" \n\t{ \"a\" :\r[ 1 , 2 ] }\n").is_object());
}

TEST(JsonParser, RejectsMalformedInput) {
  expect_parse_fails("");
  expect_parse_fails("{");
  expect_parse_fails("[1, 2");
  expect_parse_fails("{\"a\": }");
  expect_parse_fails("{\"a\" 1}");
  expect_parse_fails("{a: 1}");
  expect_parse_fails("[1,]");
  expect_parse_fails("{} trailing");
  expect_parse_fails("\"unterminated");
  expect_parse_fails("\"bad\\escape\"");
  expect_parse_fails("01");     // leading zero then trailing digit
  expect_parse_fails("nul");
  expect_parse_fails("+1");
  expect_parse_fails("1.");
  expect_parse_fails("1e");
}

TEST(JsonParser, RejectsUnescapedControlCharacters) {
  expect_parse_fails("\"a\nb\"");
}

// `text` as a JSON string literal, parsed back.
std::string escape_and_parse(const std::string& text) {
  std::string literal = "\"";
  literal += json_escape(text);
  literal += '"';
  return parse_ok(literal).as_string();
}

TEST(JsonEscape, EveryAsciiByteRoundTripsThroughParse) {
  std::string all;
  for (int byte = 0x00; byte <= 0x7F; ++byte) {
    const std::string text(1, static_cast<char>(byte));
    all += text;
    EXPECT_EQ(escape_and_parse(text), text) << "byte " << byte;
  }
  EXPECT_EQ(escape_and_parse(all), all);
}

TEST(JsonEscape, ShortFormsAndPrintableBytesUnchanged) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
  EXPECT_EQ(json_escape(std::string("\x00\x1f", 2)), "\\u0000\\u001f");
  EXPECT_EQ(json_escape("plain /path-1.bin \x7f"), "plain /path-1.bin \x7f");
}

TEST(JsonNumber, NineSignificantDigitsAndNonFiniteAsZero) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(-2.5), "-2.5");
  EXPECT_EQ(json_number(1.0 / 3.0), "0.333333333");
  EXPECT_EQ(json_number(123456789012.0), "1.23456789e+11");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "0");
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(json_number(6.02214076e23), doc, error)) << error;
  EXPECT_DOUBLE_EQ(doc.as_number(), 6.02214076e23);
}

TEST(JsonParser, DeepNestingIsBounded) {
  std::string deep;
  for (int i = 0; i < 500; ++i) {
    deep += "[";
  }
  deep += "1";
  for (int i = 0; i < 500; ++i) {
    deep += "]";
  }
  expect_parse_fails(deep);
}

TEST(JsonParser, ParsesOwnExportFormat) {
  // The shape write_metrics_json emits.
  const JsonValue doc = parse_ok(
      "{\"manifest\": {\"schema_version\": 1, \"git_sha\": \"abc\"}, "
      "\"counters\": {\"scan.windows\": 128}, \"gauges\": {}, "
      "\"histograms\": {\"lat\": {\"bounds\": [0.5], \"buckets\": [1, 0], "
      "\"count\": 1, \"sum\": 0.25, \"p50\": 0.125, \"p95\": 0.45, "
      "\"p99\": 0.49}}, \"spans\": {}}");
  EXPECT_DOUBLE_EQ(doc.find("counters")->find("scan.windows")->as_number(),
                   128.0);
  EXPECT_DOUBLE_EQ(doc.find("histograms")->find("lat")->find("p50")
                       ->as_number(),
                   0.125);
}

TEST(JsonParserFile, ReadsFromDisk) {
  const std::string path = test_support::test_path("doc.json");
  {
    std::ofstream out(path);
    out << "{\"ok\": true}\n";
  }
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json_file(path, doc, error)) << error;
  EXPECT_TRUE(doc.find("ok")->as_bool());
}

TEST(JsonParserFile, MissingFileFailsWithError) {
  JsonValue doc;
  std::string error;
  EXPECT_FALSE(parse_json_file("/nonexistent/doc.json", doc, error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace hotspot::util
