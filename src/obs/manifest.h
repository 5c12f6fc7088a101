// Run manifest: the build/runtime provenance block every metrics export and
// BENCH_*.json carries (DESIGN.md §10), so a recorded number can always be
// traced back to the commit, compiler, build type, thread count, and
// HOTSPOT_* knobs that produced it.
//
// The git sha and build type are baked in at CMake configure time (stale
// until the next reconfigure — that is recorded, not inferred at runtime).
// The wall-clock timestamp is caller-provided: collect_manifest() itself
// never reads the system clock, so hot paths and deterministic tests can
// build manifests freely.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace hotspot::obs {

struct RunManifest {
  int schema_version = 1;
  std::string git_sha;     // "unknown" when built outside a git checkout
  std::string compiler;    // e.g. "gcc 13.2.0"
  std::string build_type;  // CMAKE_BUILD_TYPE at configure time
  int threads = 1;         // util::parallel_threads() at collection time
  // std::thread::hardware_concurrency() at collection time: the physical
  // core budget behind `threads`, so a flat parallel-scaling curve on a
  // 1-core box reads as expected rather than as a regression.
  int hardware_concurrency = 1;
  // Every HOTSPOT_* environment knob set when the manifest was collected,
  // name-sorted.
  std::vector<std::pair<std::string, std::string>> env;
  // Free-form runtime facts published by subsystems via set_manifest_note()
  // (e.g. "xnor_kernel" from the bitops dispatcher), name-sorted.
  std::vector<std::pair<std::string, std::string>> notes;
  std::string timestamp;  // caller-provided wall clock; empty = not recorded
};

// Publishes (or overwrites) one key in the process-wide note set that
// collect_manifest() snapshots into RunManifest::notes. Thread-safe; meant
// for subsystems that learn a runtime fact (resolved kernel, detected
// feature) the provenance block should carry.
void set_manifest_note(const std::string& key, const std::string& value);

// Gathers the manifest for this process. `timestamp` is passed through
// verbatim (callers format it once at startup, outside any hot path).
RunManifest collect_manifest(const std::string& timestamp = "");

// The manifest as one JSON object, deterministic field order.
std::string manifest_json(const RunManifest& manifest);

}  // namespace hotspot::obs
