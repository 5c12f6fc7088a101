#include "util/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/check.h"

namespace hotspot::util {

bool JsonValue::as_bool() const {
  HOTSPOT_CHECK(is_bool()) << "JSON value is not a bool";
  return bool_;
}

double JsonValue::as_number() const {
  HOTSPOT_CHECK(is_number()) << "JSON value is not a number";
  return number_;
}

const std::string& JsonValue::as_string() const {
  HOTSPOT_CHECK(is_string()) << "JSON value is not a string";
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  HOTSPOT_CHECK(is_array()) << "JSON value is not an array";
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::as_object()
    const {
  HOTSPOT_CHECK(is_object()) << "JSON value is not an object";
  return object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!is_object()) {
    return nullptr;
  }
  const JsonValue* found = nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) {
      found = &value;
    }
  }
  return found;
}

std::size_t JsonValue::size() const {
  if (is_array()) {
    return array_.size();
  }
  if (is_object()) {
    return object_.size();
  }
  return 0;
}

JsonValue JsonValue::make_null() { return JsonValue(); }

JsonValue JsonValue::make_bool(bool value) {
  JsonValue v;
  v.type_ = JsonType::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::make_number(double value) {
  JsonValue v;
  v.type_ = JsonType::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::make_string(std::string value) {
  JsonValue v;
  v.type_ = JsonType::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.type_ = JsonType::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.type_ = JsonType::kObject;
  v.object_ = std::move(members);
  return v;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string& error)
      : text_(text), error_(error) {}

  bool parse_document(JsonValue& out) {
    skip_whitespace();
    if (!parse_value(out, /*depth=*/0)) {
      return false;
    }
    skip_whitespace();
    if (pos_ != text_.size()) {
      return fail("trailing characters after JSON document");
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 128;

  bool fail(const std::string& message) {
    std::ostringstream out;
    out << message << " at offset " << pos_;
    error_ = out.str();
    return false;
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool consume_literal(const char* literal) {
    const std::size_t length = std::strlen(literal);
    if (text_.compare(pos_, length, literal) != 0) {
      return false;
    }
    pos_ += length;
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) {
      return fail("nesting too deep");
    }
    if (pos_ >= text_.size()) {
      return fail("unexpected end of input");
    }
    const char c = text_[pos_];
    switch (c) {
      case 'n':
        if (!consume_literal("null")) {
          return fail("invalid literal");
        }
        out = JsonValue::make_null();
        return true;
      case 't':
        if (!consume_literal("true")) {
          return fail("invalid literal");
        }
        out = JsonValue::make_bool(true);
        return true;
      case 'f':
        if (!consume_literal("false")) {
          return fail("invalid literal");
        }
        out = JsonValue::make_bool(false);
        return true;
      case '"':
        return parse_string_value(out);
      case '[':
        return parse_array(out, depth);
      case '{':
        return parse_object(out, depth);
      default:
        return parse_number(out);
    }
  }

  bool parse_string_body(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) {
        return fail("unterminated escape");
      }
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return fail("truncated \\u escape");
          }
          unsigned int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned int>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned int>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned int>(h - 'A' + 10);
            } else {
              return fail("invalid \\u escape digit");
            }
          }
          // UTF-8 encode the BMP code point; surrogate pairs are passed
          // through as two 3-byte sequences (enough for our own files,
          // which never emit them).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parse_string_value(JsonValue& out) {
    std::string text;
    if (!parse_string_body(text)) {
      return false;
    }
    out = JsonValue::make_string(std::move(text));
    return true;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      pos_ = start;
      return fail("invalid value");
    }
    const std::size_t int_start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ - int_start > 1 && text_[int_start] == '0') {
      return fail("leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return fail("digit expected after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return fail("digit expected in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || errno == ERANGE) {
      return fail("number out of range");
    }
    out = JsonValue::make_number(value);
    return true;
  }

  bool parse_array(JsonValue& out, int depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    skip_whitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      out = JsonValue::make_array(std::move(items));
      return true;
    }
    while (true) {
      JsonValue item;
      skip_whitespace();
      if (!parse_value(item, depth + 1)) {
        return false;
      }
      items.push_back(std::move(item));
      skip_whitespace();
      if (pos_ >= text_.size()) {
        return fail("unterminated array");
      }
      const char c = text_[pos_];
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        out = JsonValue::make_array(std::move(items));
        return true;
      }
      return fail("',' or ']' expected in array");
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_whitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      out = JsonValue::make_object(std::move(members));
      return true;
    }
    while (true) {
      skip_whitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("object key expected");
      }
      std::string key;
      if (!parse_string_body(key)) {
        return false;
      }
      skip_whitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("':' expected after object key");
      }
      ++pos_;
      skip_whitespace();
      JsonValue value;
      if (!parse_value(value, depth + 1)) {
        return false;
      }
      members.emplace_back(std::move(key), std::move(value));
      skip_whitespace();
      if (pos_ >= text_.size()) {
        return fail("unterminated object");
      }
      const char c = text_[pos_];
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        out = JsonValue::make_object(std::move(members));
        return true;
      }
      return fail("',' or '}' expected in object");
    }
  }

  const std::string& text_;
  std::string& error_;
  std::size_t pos_ = 0;
};

}  // namespace

bool parse_json(const std::string& text, JsonValue& out, std::string& error) {
  Parser parser(text, error);
  return parser.parse_document(out);
}

bool parse_json_file(const std::string& path, JsonValue& out,
                     std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  if (in.bad()) {
    error = "read error on " + path;
    return false;
  }
  return parse_json(contents.str(), out, error);
}

std::string json_escape(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': escaped += "\\\""; break;
      case '\\': escaped += "\\\\"; break;
      case '\b': escaped += "\\b"; break;
      case '\f': escaped += "\\f"; break;
      case '\n': escaped += "\\n"; break;
      case '\r': escaped += "\\r"; break;
      case '\t': escaped += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned int>(c));
          escaped += buffer;
        } else {
          escaped += c;
        }
    }
  }
  return escaped;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

}  // namespace hotspot::util
