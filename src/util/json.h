// Minimal JSON reader, string escaper and number formatter for the repo's
// own machine-written files (metrics exports, run manifests, serve state
// files, Chrome traces).
//
// Full JSON value model (null / bool / number / string / array / object)
// with strict parsing: trailing garbage, unterminated containers, and bad
// escapes are errors. Numbers are held as double, which round-trips every
// value our %.17g-emitting writers produce. Object member order is
// preserved; duplicate keys keep the last value (find returns it).
//
// This is a reader for trusted, repo-generated documents — it favors clear
// errors over speed and does not try to be a general-purpose library.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace hotspot::util {

class JsonValue;

enum class JsonType { kNull, kBool, kNumber, kString, kArray, kObject };

class JsonValue {
 public:
  JsonValue() = default;

  JsonType type() const { return type_; }
  bool is_null() const { return type_ == JsonType::kNull; }
  bool is_bool() const { return type_ == JsonType::kBool; }
  bool is_number() const { return type_ == JsonType::kNumber; }
  bool is_string() const { return type_ == JsonType::kString; }
  bool is_array() const { return type_ == JsonType::kArray; }
  bool is_object() const { return type_ == JsonType::kObject; }

  // Typed accessors; CHECK-fail on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::vector<std::pair<std::string, JsonValue>>& as_object() const;

  // Object member lookup; nullptr when absent or not an object. Duplicate
  // keys resolve to the last occurrence.
  const JsonValue* find(const std::string& key) const;

  std::size_t size() const;

  static JsonValue make_null();
  static JsonValue make_bool(bool value);
  static JsonValue make_number(double value);
  static JsonValue make_string(std::string value);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  JsonType type_ = JsonType::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

// Parses `text` as one JSON document. Returns true and fills `out` on
// success; returns false and fills `error` (with a character offset) on
// malformed input.
bool parse_json(const std::string& text, JsonValue& out, std::string& error);

// Reads and parses a whole file; false with `error` set when the file is
// unreadable or malformed.
bool parse_json_file(const std::string& path, JsonValue& out,
                     std::string& error);

// `text` as the body of a JSON string literal (no surrounding quotes):
// `"` and `\` are backslash-escaped, \b \f \n \r \t use their short forms
// and every other byte below 0x20 becomes \u00XX. Bytes 0x20 and above pass
// through unchanged, so parse_json round-trips every string.
std::string json_escape(const std::string& text);

// `value` as a JSON number: "%.9g", so the same double always prints the
// same bytes. JSON has no inf/nan literals and parse_json rejects them, so a
// non-finite value is written as 0 — instrument values are kept finite at
// the source, and this is the last line of defense.
std::string json_number(double value);

}  // namespace hotspot::util
