// Shared knobs for the bench harnesses.
//
// The paper's numbers come from the full ICCAD-2012 benchmark (34k clips,
// 128px inputs) on a GTX 1060; this repository reproduces the *shape* of
// each result at a CI scale that finishes on a 1-core CPU in minutes.
// HOTSPOT_BENCH_SCALE (fraction of Table-2 sample counts) and
// HOTSPOT_BENCH_LS (clip image resolution) can be raised for closer runs.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/string_util.h"

namespace hotspot::bench {

// Bench knobs are parsed strictly: a typo'd HOTSPOT_BENCH_SCALE must not
// silently fall back (atof("0,5") == 0 would run a garbage scale and record
// it in BENCH_*.json). Exit 2 is the CLIs' usage-error code (kExitUsage in
// examples/cli_util.h).
inline double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  const std::optional<double> parsed = util::parse_finite_double(value);
  if (!parsed || *parsed <= 0.0) {
    std::fprintf(stderr, "invalid %s='%s': expected a positive number\n",
                 name, value);
    std::exit(2);
  }
  return *parsed;
}

inline long env_long(const char* name, long fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  const std::optional<long long> parsed =
      util::parse_integer(value, 1, std::numeric_limits<long>::max());
  if (!parsed) {
    std::fprintf(stderr, "invalid %s='%s': expected a positive integer\n",
                 name, value);
    std::exit(2);
  }
  return static_cast<long>(*parsed);
}

inline double bench_scale() { return env_double("HOTSPOT_BENCH_SCALE", 0.05); }
inline long bench_image_size() { return env_long("HOTSPOT_BENCH_LS", 32); }

// Minimal machine-readable result emitter shared by the bench harnesses.
// Builds one JSON object of scalar fields plus optional nested arrays, so
// each bench can drop a BENCH_<name>.json next to its stdout table as the
// provenance record of that run.
class JsonObject {
 public:
  JsonObject& set(const std::string& key, double value) {
    if (!std::isfinite(value)) {
      return set_raw(key, "null");  // JSON has no NaN/Inf literals
    }
    char buffer[64];
    // Integers exactly, everything else with round-trip precision, so the
    // file records the measured value rather than a %.6g truncation of it.
    if (value == std::floor(value) && std::fabs(value) < 9007199254740992.0) {
      std::snprintf(buffer, sizeof(buffer), "%.0f", value);
    } else {
      std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    }
    return set_raw(key, buffer);
  }
  JsonObject& set(const std::string& key, long value) {
    return set_raw(key, std::to_string(value));
  }
  JsonObject& set(const std::string& key, int value) {
    return set_raw(key, std::to_string(value));
  }
  JsonObject& set(const std::string& key, bool value) {
    return set_raw(key, value ? "true" : "false");
  }
  JsonObject& set(const std::string& key, const std::string& value) {
    return set_raw(key, "\"" + util::json_escape(value) + "\"");
  }
  JsonObject& set(const std::string& key, const char* value) {
    return set(key, std::string(value));
  }
  // Preformatted JSON (a nested object or array built by the caller).
  JsonObject& set_raw(const std::string& key, const std::string& json) {
    entries_.emplace_back(key, json);
    return *this;
  }

  std::string str() const {
    std::ostringstream out;
    out << "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) {
        out << ", ";
      }
      out << "\"" << entries_[i].first << "\": " << entries_[i].second;
    }
    out << "}";
    return out.str();
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

inline std::string json_array(const std::vector<JsonObject>& items) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) {
      out << ", ";
    }
    out << items[i].str();
  }
  out << "]";
  return out.str();
}

// Writes the object to `path` and reports the emission on stdout so bench
// logs record where the machine-readable copy went. Every emission carries
// a "manifest" section (the build/runtime provenance of obs/manifest.h)
// and a "metrics" section — the process-wide registry snapshot plus any
// collected trace spans — so BENCH_*.json records cache behaviour and
// layer timing alongside the headline numbers.
inline bool write_json_result(const std::string& path, JsonObject result) {
  result.set_raw("manifest",
                 obs::manifest_json(obs::collect_manifest()));
  result.set_raw("metrics",
                 obs::to_json(obs::MetricsRegistry::global().snapshot(),
                              obs::collect_span_report()));
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << result.str() << "\n";
  std::printf("[json] wrote %s\n", path.c_str());
  return true;
}

inline void print_header(const char* experiment, const char* paper_result) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper reports: %s\n", paper_result);
  std::printf("Scale: %.3f of Table-2 counts, l_s = %ld (override with\n",
              bench_scale(), bench_image_size());
  std::printf("HOTSPOT_BENCH_SCALE / HOTSPOT_BENCH_LS).\n");
  std::printf("==============================================================\n\n");
}

}  // namespace hotspot::bench
