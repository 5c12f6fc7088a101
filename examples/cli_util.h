// Shared command-line conventions for the example binaries.
//
// Every example exits with the same typed codes — kExitOk (0) on success,
// kExitRuntime (1) when the run itself fails (I/O, corrupt checkpoint,
// quarantined scan windows), kExitUsage (2) on a bad invocation — and a
// usage error always names the offending value on stderr instead of
// silently substituting a default. Scripts and CI legs branch on the code;
// humans read the message.
#pragma once

#include <cstdio>
#include <optional>

#include "util/string_util.h"

namespace hotspot::examples {

inline constexpr int kExitOk = 0;
inline constexpr int kExitRuntime = 1;
inline constexpr int kExitUsage = 2;
// The endpoint answered but its payload failed validation (non-JSON
// /healthz, unparseable Prometheus line, non-finite sample). Distinct from
// kExitRuntime so monitoring can tell "server down" from "server lying".
inline constexpr int kExitMalformed = 3;

// Strict integer parse (util::parse_integer's grammar); false on garbage,
// surrounding space, a '+', trailing junk, overflow, or values outside
// [min, max].
inline bool parse_long(const char* text, long min, long max, long* out) {
  const std::optional<long long> parsed =
      text != nullptr ? util::parse_integer(text, min, max) : std::nullopt;
  if (!parsed) {
    return false;
  }
  *out = static_cast<long>(*parsed);
  return true;
}

// Strict positive-integer parse into [1, max].
inline bool parse_positive(const char* text, long max, long* out) {
  return parse_long(text, 1, max, out);
}

// Strict positive-double parse (util::parse_finite_double's grammar); false
// on garbage, trailing junk, hex floats, overflow, NaN, or values <= 0.
inline bool parse_positive_double(const char* text, double* out) {
  const std::optional<double> parsed =
      text != nullptr ? util::parse_finite_double(text) : std::nullopt;
  if (!parsed || *parsed <= 0.0) {
    return false;
  }
  *out = *parsed;
  return true;
}

// Prints "error: <what>, got '<got>'" and returns kExitUsage so callers can
// `return usage_error(...)` in one line.
inline int usage_error(const char* what, const char* got) {
  std::fprintf(stderr, "error: %s, got '%s'\n", what,
               got != nullptr ? got : "<missing>");
  return kExitUsage;
}

}  // namespace hotspot::examples
