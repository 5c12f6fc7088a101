// Small string helpers shared by the table formatter, file I/O and the
// strict number grammar of flags, env vars and query strings.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hotspot::util {

// Splits on a single-character delimiter; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char delimiter);

// Formats a double with the given number of decimal places.
std::string format_double(double value, int decimals);

// Formats counts with thousands separators, e.g. 17096 -> "17,096".
std::string format_count(long long value);

// The one strict number grammar for CLI flags, env vars and query
// strings: the whole text is the number — no leading or trailing space, no
// '+', and a '-' only where `min` is negative. Returns nullopt on garbage,
// overflow, or a value outside [min, max].
std::optional<long long> parse_integer(std::string_view text, long long min,
                                       long long max);

// A finite double in decimal or scientific notation under the same
// grammar: no hex floats, inf or nan. Returns nullopt otherwise.
std::optional<double> parse_finite_double(std::string_view text);

}  // namespace hotspot::util
