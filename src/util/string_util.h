// Small string helpers shared by the table formatter and file I/O.
#pragma once

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

}  // namespace hotspot::util
