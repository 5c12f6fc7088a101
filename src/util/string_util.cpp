#include "util/string_util.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace hotspot::util {

std::vector<std::string> split(std::string_view text, char delimiter) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (true) {
    const std::size_t end = text.find(delimiter, begin);
    if (end == std::string_view::npos) {
      parts.emplace_back(text.substr(begin));
      return parts;
    }
    parts.emplace_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
}

std::string format_double(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

std::string format_count(long long value) {
  const bool negative = value < 0;
  unsigned long long magnitude =
      negative ? 0ULL - static_cast<unsigned long long>(value)
               : static_cast<unsigned long long>(value);
  std::string digits = std::to_string(magnitude);
  std::string grouped;
  grouped.reserve(digits.size() + digits.size() / 3 + 1);
  const std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i + 3 - lead) % 3 == 0) {
      grouped += ',';
    }
    grouped += digits[i];
  }
  return negative ? "-" + grouped : grouped;
}

std::optional<long long> parse_integer(std::string_view text, long long min,
                                       long long max) {
  if (min >= 0 && !text.empty() && text.front() == '-') {
    return std::nullopt;  // "-0" is no non-negative number
  }
  const char* end = text.data() + text.size();
  long long value = 0;
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || value < min || value > max) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> parse_finite_double(std::string_view text) {
  const char* end = text.data() + text.size();
  double value = 0.0;
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace hotspot::util
