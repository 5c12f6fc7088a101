#include "obs/manifest.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "util/json.h"
#include "util/parallel.h"

// Baked in by src/obs/CMakeLists.txt; fall back cleanly when built by hand.
#ifndef HOTSPOT_GIT_SHA
#define HOTSPOT_GIT_SHA "unknown"
#endif
#ifndef HOTSPOT_BUILD_TYPE
#define HOTSPOT_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace hotspot::obs {
namespace {

std::string compiler_string() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::mutex& notes_mutex() {
  static std::mutex mutex;
  return mutex;
}

std::map<std::string, std::string>& notes_store() {
  static std::map<std::string, std::string> notes;
  return notes;
}

}  // namespace

void set_manifest_note(const std::string& key, const std::string& value) {
  const std::lock_guard<std::mutex> lock(notes_mutex());
  notes_store()[key] = value;
}

RunManifest collect_manifest(const std::string& timestamp) {
  RunManifest manifest;
  manifest.git_sha = HOTSPOT_GIT_SHA;
  manifest.compiler = compiler_string();
  manifest.build_type = HOTSPOT_BUILD_TYPE;
  manifest.threads = util::parallel_threads();
  manifest.hardware_concurrency =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  manifest.timestamp = timestamp;
  {
    const std::lock_guard<std::mutex> lock(notes_mutex());
    manifest.notes.assign(notes_store().begin(), notes_store().end());
  }
  for (char** entry = environ; entry != nullptr && *entry != nullptr;
       ++entry) {
    const char* text = *entry;
    if (std::strncmp(text, "HOTSPOT_", 8) != 0) {
      continue;
    }
    const char* equals = std::strchr(text, '=');
    if (equals == nullptr) {
      continue;
    }
    manifest.env.emplace_back(std::string(text, equals),
                              std::string(equals + 1));
  }
  std::sort(manifest.env.begin(), manifest.env.end());
  return manifest;
}

std::string manifest_json(const RunManifest& manifest) {
  std::ostringstream out;
  out << "{\"schema_version\": " << manifest.schema_version
      << ", \"git_sha\": \"" << util::json_escape(manifest.git_sha)
      << "\", \"compiler\": \"" << util::json_escape(manifest.compiler)
      << "\", \"build_type\": \"" << util::json_escape(manifest.build_type)
      << "\", \"threads\": " << manifest.threads
      << ", \"hardware_concurrency\": " << manifest.hardware_concurrency
      << ", \"env\": {";
  for (std::size_t i = 0; i < manifest.env.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\""
        << util::json_escape(manifest.env[i].first)
        << "\": \"" << util::json_escape(manifest.env[i].second) << "\"";
  }
  out << "}, \"notes\": {";
  for (std::size_t i = 0; i < manifest.notes.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\""
        << util::json_escape(manifest.notes[i].first)
        << "\": \"" << util::json_escape(manifest.notes[i].second) << "\"";
  }
  out << "}";
  if (!manifest.timestamp.empty()) {
    out << ", \"timestamp\": \"" << util::json_escape(manifest.timestamp)
        << "\"";
  }
  out << "}";
  return out.str();
}

}  // namespace hotspot::obs
