// Load generator and smoke-test driver for ./hotspot_serve.
//
// Default mode: N client threads each round-trip R predict requests of C
// clips and the run reports sustained clips/sec plus p50/p95/p99 request
// latency — what the serve_open workload of bench/e2e measures.
//
//   ./examples/serve_client $(cat /tmp/serve.port) --clients 4 \
//       --requests 50 --clips 8 --grid 32
//
// Smoke modes (each exits 0 exactly when the server behaved as §15
// specifies, so CI legs branch on the exit code):
//   --ping            one Ping/Pong round trip
//   --malformed       ship garbage bytes, expect Reject(kBadFrame)
//   --expect-shed     expect this predict to be shed with Reject(kQueueFull)
//                     (run against a --stall-ms server with a small queue)
//   --swap PATH       hot-swap the server to PATH, expect SwapOk
//   --stats           print the server's metrics JSON
//   --shutdown        ask for a clean server shutdown
//   --admin-port N    probe the admin endpoint instead of the serve port:
//                     fetch /healthz (must be healthy strict JSON) and
//                     /metrics (every sample line must parse with a finite
//                     value). Exits 3 (kExitMalformed) naming the offending
//                     line when the endpoint answers garbage, 1 when it is
//                     unreachable/unhealthy — monitoring branches on which.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cli_util.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/socket.h"
#include "tensor/tensor.h"
#include "util/json.h"
#include "util/string_util.h"

namespace {

using hotspot::tensor::Shape;
using hotspot::tensor::Tensor;

Tensor random_clips(unsigned seed, long count, long grid) {
  Tensor images(Shape{count, 1, grid, grid});
  unsigned state = seed * 2654435761u + 17;
  for (std::int64_t i = 0; i < images.numel(); ++i) {
    state = state * 1664525u + 1013904223u;
    images[i] = (state >> 16) % 2 == 0 ? 0.0f : 1.0f;
  }
  return images;
}

double percentile(std::vector<double> sorted_seconds, double q) {
  if (sorted_seconds.empty()) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(sorted_seconds.size() - 1);
  const auto index = static_cast<std::size_t>(rank);
  return sorted_seconds[std::min(index, sorted_seconds.size() - 1)];
}

// Validates one Prometheus sample line: `name{labels} value` or
// `name value` — name restricted to the exporter's charset and the value a
// finite double with no trailing junk.
bool valid_prometheus_line(const std::string& line) {
  const std::size_t space = line.rfind(' ');
  if (space == std::string::npos || space == 0) {
    return false;
  }
  const std::string name_part = line.substr(0, space);
  const std::size_t brace = name_part.find('{');
  const std::string name =
      brace == std::string::npos ? name_part : name_part.substr(0, brace);
  if (name.empty() ||
      (brace != std::string::npos && name_part.back() != '}')) {
    return false;
  }
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) {
      return false;
    }
  }
  return hotspot::util::parse_finite_double(
             std::string_view(line).substr(space + 1))
      .has_value();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hotspot;
  using namespace hotspot::examples;
  long port = 0;
  std::string host = "127.0.0.1";
  long clients = 1;
  long requests = 10;
  long clips = 4;
  long grid = 32;
  long seed = 1;
  std::string tenant = "loadgen";
  std::string swap_path;
  long swap_grid = 32;
  long admin_port = -1;
  enum class Mode {
    kLoad,
    kPing,
    kMalformed,
    kExpectShed,
    kSwap,
    kStats,
    kShutdown
  };
  Mode mode = Mode::kLoad;
  bool have_port = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--host") {
      const char* value = next();
      if (value == nullptr) {
        return usage_error("--host requires an address", nullptr);
      }
      host = value;
    } else if (arg == "--clients") {
      const char* text = next();
      if (!parse_positive(text, 4096, &clients)) {
        return usage_error("--clients expects an integer in [1, 4096]", text);
      }
    } else if (arg == "--requests") {
      const char* text = next();
      if (!parse_positive(text, 1'000'000, &requests)) {
        return usage_error("--requests expects a positive integer", text);
      }
    } else if (arg == "--clips") {
      const char* text = next();
      if (!parse_positive(text, 1 << 20, &clips)) {
        return usage_error("--clips expects a positive integer", text);
      }
    } else if (arg == "--grid") {
      const char* text = next();
      if (!parse_positive(text, 4096, &grid)) {
        return usage_error("--grid expects an integer in [1, 4096]", text);
      }
    } else if (arg == "--seed") {
      const char* text = next();
      if (!parse_positive(text, 1L << 30, &seed)) {
        return usage_error("--seed expects a positive integer", text);
      }
    } else if (arg == "--tenant") {
      const char* value = next();
      if (value == nullptr || !serve::valid_tenant(value)) {
        return usage_error("--tenant expects [A-Za-z0-9_.-]{1,32}", value);
      }
      tenant = value;
    } else if (arg == "--ping") {
      mode = Mode::kPing;
    } else if (arg == "--malformed") {
      mode = Mode::kMalformed;
    } else if (arg == "--expect-shed") {
      mode = Mode::kExpectShed;
    } else if (arg == "--swap") {
      const char* value = next();
      if (value == nullptr) {
        return usage_error("--swap requires a checkpoint path", nullptr);
      }
      swap_path = value;
      mode = Mode::kSwap;
    } else if (arg == "--swap-grid") {
      const char* text = next();
      if (!parse_positive(text, 4096, &swap_grid)) {
        return usage_error("--swap-grid expects an integer in [1, 4096]", text);
      }
    } else if (arg == "--stats") {
      mode = Mode::kStats;
    } else if (arg == "--shutdown") {
      mode = Mode::kShutdown;
    } else if (arg == "--admin-port") {
      const char* text = next();
      if (!parse_positive(text, 65535, &admin_port)) {
        return usage_error("--admin-port expects an integer in [1, 65535]",
                           text);
      }
    } else if (arg.rfind("--", 0) == 0) {
      return usage_error("unknown flag", arg.c_str());
    } else if (!have_port) {
      if (!parse_long(arg.c_str(), 1, 65535, &port)) {
        return usage_error("port expects an integer in [1, 65535]",
                           arg.c_str());
      }
      have_port = true;
    } else {
      return usage_error("unexpected positional argument", arg.c_str());
    }
  }
  if (!have_port && admin_port < 0) {
    return usage_error("usage: serve_client <port> [flags]", nullptr);
  }

  if (admin_port >= 0) {
    // Admin probe: the endpoint must answer AND the payloads must be
    // well-formed. A scrape pipeline that swallows garbage is worse than a
    // down endpoint, hence the dedicated malformed exit code: no answer is
    // kExitRuntime, an answer that is not HTTP is kExitMalformed.
    serve::HttpResponse response;
    const auto get = [&](const char* path) {
      std::string error;
      const serve::HttpGetResult result = serve::http_get(
          host, static_cast<int>(admin_port), path, &response, &error);
      if (result != serve::HttpGetResult::kOk) {
        std::fprintf(stderr, "error: %s: %s\n", path, error.c_str());
      }
      return result == serve::HttpGetResult::kOk          ? kExitOk
             : result == serve::HttpGetResult::kMalformed ? kExitMalformed
                                                          : kExitRuntime;
    };
    if (const int rc = get("/healthz"); rc != kExitOk) {
      return rc;
    }
    const std::string& body = response.body;
    util::JsonValue health;
    std::string error;
    if (!util::parse_json(body, health, error)) {
      std::fprintf(stderr, "error: /healthz is not strict JSON: %s\n%s",
                   error.c_str(), body.c_str());
      return kExitMalformed;
    }
    const util::JsonValue* healthy = health.find("healthy");
    if (healthy == nullptr || !healthy->is_bool()) {
      std::fprintf(stderr, "error: /healthz lacks a boolean \"healthy\"\n");
      return kExitMalformed;
    }
    if (response.status != 200 || !healthy->as_bool()) {
      std::fprintf(stderr, "error: server unhealthy (HTTP %d): %s",
                   response.status, body.c_str());
      return kExitRuntime;
    }
    if (const int rc = get("/metrics"); rc != kExitOk) {
      return rc;
    }
    if (response.status != 200 || body.empty()) {
      std::fprintf(stderr, "error: /metrics answered HTTP %d\n",
                   response.status);
      return kExitMalformed;
    }
    long samples = 0;
    std::size_t pos = 0;
    while (pos < body.size()) {
      std::size_t end = body.find('\n', pos);
      if (end == std::string::npos) {
        end = body.size();
      }
      const std::string line = body.substr(pos, end - pos);
      pos = end + 1;
      if (line.empty() || line[0] == '#') {
        continue;
      }
      if (!valid_prometheus_line(line)) {
        std::fprintf(stderr, "error: malformed /metrics line: %s\n",
                     line.c_str());
        return kExitMalformed;
      }
      ++samples;
    }
    std::printf("admin probe ok: healthy, %ld finite samples\n", samples);
    return kExitOk;
  }

  if (mode != Mode::kLoad) {
    serve::ServeClient client;
    std::string error;
    if (!client.connect(host, static_cast<int>(port), &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return kExitRuntime;
    }
    switch (mode) {
      case Mode::kPing: {
        if (!client.ping(0x70696e67, &error)) {
          std::fprintf(stderr, "error: ping failed: %s\n", error.c_str());
          return kExitRuntime;
        }
        std::printf("pong\n");
        return kExitOk;
      }
      case Mode::kMalformed: {
        const std::vector<std::uint8_t> garbage = {0xba, 0xdf, 0x00, 0x0d,
                                                   1,    2,    3,    4,
                                                   5,    6,    7,    8};
        serve::Frame response;
        if (!client.send_raw(garbage, &response, &error)) {
          std::fprintf(stderr, "error: %s\n", error.c_str());
          return kExitRuntime;
        }
        serve::Reject reject;
        if (response.type != serve::MessageType::kReject ||
            !serve::decode_reject(response.payload, &reject) ||
            reject.reason != serve::RejectReason::kBadFrame) {
          std::fprintf(stderr,
                       "error: expected Reject(kBadFrame), got type %u\n",
                       static_cast<unsigned>(response.type));
          return kExitRuntime;
        }
        std::printf("rejected as expected: %s\n", reject.detail.c_str());
        return kExitOk;
      }
      case Mode::kExpectShed: {
        serve::PredictOutcome outcome;
        if (!client.predict(tenant,
                            random_clips(static_cast<unsigned>(seed), clips,
                                         grid),
                            &outcome, &error)) {
          std::fprintf(stderr, "error: %s\n", error.c_str());
          return kExitRuntime;
        }
        if (outcome.ok ||
            outcome.reason != serve::RejectReason::kQueueFull) {
          std::fprintf(stderr,
                       "error: expected Reject(kQueueFull), got %s\n",
                       outcome.ok ? "labels" : outcome.detail.c_str());
          return kExitRuntime;
        }
        std::printf("shed as expected: %s\n", outcome.detail.c_str());
        return kExitOk;
      }
      case Mode::kSwap: {
        std::uint64_t version = 0;
        std::optional<serve::Reject> reject;
        if (!client.swap_model(swap_path, swap_grid, &version, &reject,
                               &error)) {
          std::fprintf(stderr, "error: %s\n", error.c_str());
          return kExitRuntime;
        }
        if (reject.has_value()) {
          std::fprintf(stderr, "error: swap refused: %s\n",
                       reject->detail.c_str());
          return kExitRuntime;
        }
        std::printf("swapped to %s (version %llu)\n", swap_path.c_str(),
                    static_cast<unsigned long long>(version));
        return kExitOk;
      }
      case Mode::kStats: {
        std::string json;
        if (!client.stats(&json, &error)) {
          std::fprintf(stderr, "error: %s\n", error.c_str());
          return kExitRuntime;
        }
        std::printf("%s\n", json.c_str());
        return kExitOk;
      }
      case Mode::kShutdown: {
        if (!client.shutdown_server(&error)) {
          std::fprintf(stderr, "error: %s\n", error.c_str());
          return kExitRuntime;
        }
        std::printf("server acknowledged shutdown\n");
        return kExitOk;
      }
      case Mode::kLoad:
        break;
    }
  }

  // Load mode: `clients` threads, each with its own connection, each
  // sending `requests` predict calls. Shed responses are counted and
  // retried once after a short backoff (the §15 client contract).
  std::atomic<long> completed{0};
  std::atomic<long> shed{0};
  std::atomic<long> failed{0};
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (long c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      serve::ServeClient client;
      std::string error;
      if (!client.connect(host, static_cast<int>(port), &error)) {
        failed += requests;
        return;
      }
      auto& bucket = latencies[static_cast<std::size_t>(c)];
      bucket.reserve(static_cast<std::size_t>(requests));
      for (long r = 0; r < requests; ++r) {
        const unsigned request_seed =
            static_cast<unsigned>(seed + c * 100003 + r);
        const Tensor images = random_clips(request_seed, clips, grid);
        for (int attempt = 0; attempt < 2; ++attempt) {
          serve::PredictOutcome outcome;
          const auto t0 = std::chrono::steady_clock::now();
          if (!client.predict(tenant + "-" + std::to_string(c), images,
                              &outcome, &error)) {
            ++failed;
            return;  // transport is gone; stop this worker
          }
          const auto t1 = std::chrono::steady_clock::now();
          if (outcome.ok) {
            bucket.push_back(
                std::chrono::duration<double>(t1 - t0).count());
            ++completed;
            break;
          }
          if (outcome.reason == serve::RejectReason::kQueueFull &&
              attempt == 0) {
            ++shed;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            continue;
          }
          ++failed;
          break;
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::vector<double> all;
  for (const auto& bucket : latencies) {
    all.insert(all.end(), bucket.begin(), bucket.end());
  }
  std::sort(all.begin(), all.end());
  const double clips_per_second =
      elapsed > 0.0
          ? static_cast<double>(completed.load() * clips) / elapsed
          : 0.0;
  std::printf(
      "clients=%ld requests_ok=%ld shed=%ld failed=%ld elapsed=%.3fs\n",
      clients, completed.load(), shed.load(), failed.load(), elapsed);
  std::printf("clips/sec=%.1f p50=%.6fs p95=%.6fs p99=%.6fs\n",
              clips_per_second, percentile(all, 0.50),
              percentile(all, 0.95), percentile(all, 0.99));
  return failed.load() == 0 ? kExitOk : kExitRuntime;
}
