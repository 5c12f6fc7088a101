// Hotspot detection as a service (DESIGN.md §15): a persistent server that
// loads a trained checkpoint into the model registry and classifies clips
// for many concurrent clients, micro-batching across them.
//
//   ./examples/quickstart
//   ./examples/hotspot_serve quickstart_model.bin --grid 32 --port 0 \
//       --port-file /tmp/serve.port &
//   ./examples/serve_client $(cat /tmp/serve.port) --clips 8 --grid 32
//
// The bound port is printed on stdout (and written to --port-file when
// given) so scripts never have to parse logs. With --state <path> the
// registry persists the active model: a killed-and-restarted server with
// the same --state resumes serving without naming the model again.
//
// Exit codes: 0 after a clean shutdown (SIGINT/SIGTERM or a client Shutdown
// frame), 1 on runtime failure (model load, bind), 2 on a bad invocation.
//
// --stall-ms is a chaos/debug flag: it arms the predict stall fault point,
// wedging the batch worker on every model call so the CI smoke leg can
// fill the admission queue and observe a deterministic Reject(kQueueFull).
#include <csignal>
#include <cstdio>
#include <string>

#include "cli_util.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/admin.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "util/fault_injection.h"
#include "util/parallel.h"

namespace {

hotspot::serve::Server* g_server = nullptr;
// Set before signal handlers are installed, then never written again, so
// the fatal handler reads a stable pointer/string.
std::string g_flight_dump_path;

void handle_signal(int /*signum*/) {
  // async-signal-safe enough for a demo binary: stop() only touches
  // mutexes/sockets, and the alternative (self-pipe) buys little here.
  if (g_server != nullptr) {
    g_server->stop();
  }
}

// Fatal-signal path: persist the flight recorder (bounded spins, so a
// crashed writer holding a slot lock cannot wedge the handler), then
// re-raise with the default disposition so the exit status still reports
// the crash. Not strictly async-signal-safe — this is best-effort forensics
// on the way down, and a failed dump must never mask the original fault.
void handle_fatal(int signum) {
  std::signal(signum, SIG_DFL);
  if (g_server != nullptr && !g_flight_dump_path.empty()) {
    g_server->flight_recorder().dump(g_flight_dump_path, nullptr);
  }
  std::raise(signum);
}

// Writes "<port>\n" to the file named by `flag` (--port-file or
// --admin-port-file); false, with the error printed, when it cannot.
bool write_port_file(const char* flag, const std::string& path, int port) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "error: cannot write %s %s\n", flag, path.c_str());
    return false;
  }
  std::fprintf(file, "%d\n", port);
  std::fclose(file);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hotspot;
  using namespace hotspot::examples;
  std::string model_path;
  std::string state_path;
  std::string port_file;
  std::string metrics_out;
  std::string trace_out;
  std::string admin_port_file;
  serve::ServerConfig config;
  serve::AdminConfig admin_config;
  long admin_port = -1;  // -1 = admin endpoint disabled
  long grid = 32;
  long stall_ms = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        return nullptr;
      }
      (void)flag;
      return argv[++i];
    };
    if (arg == "--port") {
      long port = 0;
      const char* text = next("--port");
      if (!parse_long(text, 0, 65535, &port)) {
        return usage_error("--port expects an integer in [0, 65535]", text);
      }
      config.port = static_cast<int>(port);
    } else if (arg == "--port-file") {
      const char* value = next("--port-file");
      if (value == nullptr) {
        return usage_error("--port-file requires a path", nullptr);
      }
      port_file = value;
    } else if (arg == "--state") {
      const char* value = next("--state");
      if (value == nullptr) {
        return usage_error("--state requires a path", nullptr);
      }
      state_path = value;
    } else if (arg == "--grid") {
      const char* text = next("--grid");
      if (!parse_positive(text, 4096, &grid)) {
        return usage_error("--grid expects an integer in [1, 4096]", text);
      }
    } else if (arg == "--max-batch") {
      long value = 0;
      const char* text = next("--max-batch");
      if (!parse_positive(text, 1 << 20, &value)) {
        return usage_error("--max-batch expects a positive integer", text);
      }
      config.batcher.max_batch_clips = static_cast<std::size_t>(value);
    } else if (arg == "--queue-cap") {
      long value = 0;
      const char* text = next("--queue-cap");
      if (!parse_positive(text, 1 << 24, &value)) {
        return usage_error("--queue-cap expects a positive integer", text);
      }
      config.batcher.max_queue_clips = static_cast<std::size_t>(value);
    } else if (arg == "--deadline-us") {
      long value = 0;
      const char* text = next("--deadline-us");
      if (!parse_long(text, 0, 60'000'000, &value)) {
        return usage_error("--deadline-us expects microseconds in [0, 6e7]",
                           text);
      }
      config.batcher.batch_deadline = std::chrono::microseconds(value);
    } else if (arg == "--max-clips") {
      long value = 0;
      const char* text = next("--max-clips");
      if (!parse_positive(text, 1 << 20, &value)) {
        return usage_error("--max-clips expects a positive integer", text);
      }
      config.max_clips_per_request = static_cast<std::size_t>(value);
    } else if (arg == "--threads") {
      // Same strict validator as HOTSPOT_NUM_THREADS: garbage or overflow
      // is a usage error naming the offending value, never a silent default.
      int threads = 0;
      const char* value = next("--threads");
      if (!util::parse_thread_count_strict(value, &threads)) {
        return usage_error("--threads expects an integer in [1, 1024]", value);
      }
      util::set_parallel_threads(threads);
    } else if (arg == "--metrics-out") {
      const char* value = next("--metrics-out");
      if (value == nullptr) {
        return usage_error("--metrics-out requires a path", nullptr);
      }
      metrics_out = value;
    } else if (arg == "--stall-ms") {
      const char* text = next("--stall-ms");
      if (!parse_long(text, 1, 60'000, &stall_ms)) {
        return usage_error("--stall-ms expects milliseconds in [1, 60000]",
                           text);
      }
    } else if (arg == "--admin-port") {
      const char* text = next("--admin-port");
      if (!parse_long(text, 0, 65535, &admin_port)) {
        return usage_error("--admin-port expects an integer in [0, 65535]",
                           text);
      }
    } else if (arg == "--admin-port-file") {
      const char* value = next("--admin-port-file");
      if (value == nullptr) {
        return usage_error("--admin-port-file requires a path", nullptr);
      }
      admin_port_file = value;
    } else if (arg == "--slo-p99-ms") {
      double value = 0.0;
      const char* text = next("--slo-p99-ms");
      if (!parse_positive_double(text, &value)) {
        return usage_error("--slo-p99-ms expects a positive number", text);
      }
      config.slo.p99_objective_seconds = value / 1000.0;
    } else if (arg == "--slo-availability") {
      double value = 0.0;
      const char* text = next("--slo-availability");
      if (!parse_positive_double(text, &value) || value >= 1.0) {
        return usage_error("--slo-availability expects a value in (0, 1)",
                           text);
      }
      config.slo.availability_objective = value;
    } else if (arg == "--slo-window-s") {
      long value = 0;
      const char* text = next("--slo-window-s");
      if (!parse_positive(text, 86'400, &value)) {
        return usage_error("--slo-window-s expects seconds in [1, 86400]",
                           text);
      }
      config.slo.window_seconds = static_cast<std::size_t>(value);
    } else if (arg == "--flight-size") {
      long value = 0;
      const char* text = next("--flight-size");
      if (!parse_positive(text, 1 << 20, &value)) {
        return usage_error("--flight-size expects a positive integer", text);
      }
      config.flight_recorder_capacity = static_cast<std::size_t>(value);
    } else if (arg == "--flight-dump") {
      const char* value = next("--flight-dump");
      if (value == nullptr) {
        return usage_error("--flight-dump requires a path", nullptr);
      }
      g_flight_dump_path = value;
    } else if (arg == "--trace-out") {
      const char* value = next("--trace-out");
      if (value == nullptr) {
        return usage_error("--trace-out requires a path", nullptr);
      }
      trace_out = value;
    } else if (arg.rfind("--", 0) == 0) {
      return usage_error("unknown flag", arg.c_str());
    } else if (model_path.empty()) {
      model_path = arg;
    } else {
      return usage_error("unexpected positional argument", arg.c_str());
    }
  }
  if (config.max_clips_per_request > config.batcher.max_batch_clips) {
    return usage_error(
        "--max-clips must not exceed --max-batch (requests are never split)",
        std::to_string(config.max_clips_per_request).c_str());
  }

  serve::ModelRegistry registry(state_path);
  if (!model_path.empty()) {
    const nn::LoadResult result =
        registry.load(model_path, static_cast<std::int64_t>(grid));
    if (!result.ok()) {
      std::fprintf(stderr, "error: cannot load model '%s': %s\n",
                   model_path.c_str(), result.message.c_str());
      return kExitRuntime;
    }
    std::printf("model %s registered as version %llu (grid %ld)\n",
                model_path.c_str(),
                static_cast<unsigned long long>(registry.version()), grid);
  } else if (!state_path.empty()) {
    const nn::LoadResult result = registry.restore();
    if (result.ok()) {
      std::printf("restored model %s (version %llu) from %s\n",
                  registry.active()->path().c_str(),
                  static_cast<unsigned long long>(registry.version()),
                  state_path.c_str());
    } else {
      std::fprintf(stderr,
                   "warning: no model restored from %s (%s); serving "
                   "Reject(kModelUnavailable) until a SwapModel arrives\n",
                   state_path.c_str(), result.message.c_str());
    }
  } else {
    std::fprintf(stderr,
                 "warning: no model and no --state; serving "
                 "Reject(kModelUnavailable) until a SwapModel arrives\n");
  }

  if (stall_ms > 0) {
    util::fault_set_stall_ms(static_cast<int>(stall_ms));
    util::fault_arm_sticky(util::FaultPoint::kScanPredictStall);
    std::printf("chaos: every predict stalls %ld ms\n", stall_ms);
  }

  serve::Server server(config, &registry);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitRuntime;
  }
  std::printf("serving on 127.0.0.1:%d\n", server.bound_port());
  std::fflush(stdout);
  if (!port_file.empty() &&
      !write_port_file("--port-file", port_file, server.bound_port())) {
    return kExitRuntime;
  }

  admin_config.port = static_cast<int>(admin_port < 0 ? 0 : admin_port);
  admin_config.flight_dump_path = g_flight_dump_path;
  serve::AdminServer admin(admin_config, &server);
  if (admin_port >= 0) {
    if (!admin.start(&error)) {
      std::fprintf(stderr, "error: admin endpoint: %s\n", error.c_str());
      return kExitRuntime;
    }
    std::printf("admin endpoint on 127.0.0.1:%d\n", admin.bound_port());
    std::fflush(stdout);
    if (!admin_port_file.empty() &&
        !write_port_file("--admin-port-file", admin_port_file,
                         admin.bound_port())) {
      return kExitRuntime;
    }
  }

  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  // Fatal signals persist the flight recorder before the default
  // disposition kills the process: the last N requests survive the crash.
  std::signal(SIGSEGV, handle_fatal);
  std::signal(SIGABRT, handle_fatal);
  std::signal(SIGBUS, handle_fatal);
  std::signal(SIGFPE, handle_fatal);
  std::signal(SIGILL, handle_fatal);
  server.wait();
  server.stop();

  if (!g_flight_dump_path.empty()) {
    std::string dump_error;
    if (server.flight_recorder().dump(g_flight_dump_path, &dump_error)) {
      std::printf("flight recorder written to %s\n",
                  g_flight_dump_path.c_str());
    } else {
      std::fprintf(stderr, "warning: flight dump failed: %s\n",
                   dump_error.c_str());
    }
  }
  if (!metrics_out.empty()) {
    // Refresh the derived gauges so the final export carries them too.
    server.slo_monitor().publish();
    obs::publish_timeline_metrics();
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::global().snapshot();
    if (!obs::write_metrics_json(metrics_out, snapshot,
                                 obs::collect_span_report())) {
      g_server = nullptr;
      return kExitRuntime;
    }
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    // Span timeline plus the request flows from the flight recorder, one
    // chrome://tracing file: phases line up because both record against the
    // process steady clock.
    const std::string trace = obs::to_chrome_trace(
        obs::collect_timeline(), server.flight_recorder().snapshot());
    std::FILE* file = std::fopen(trace_out.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "error: cannot write --trace-out %s\n",
                   trace_out.c_str());
      g_server = nullptr;
      return kExitRuntime;
    }
    std::fprintf(file, "%s\n", trace.c_str());
    std::fclose(file);
    std::printf("chrome trace written to %s\n", trace_out.c_str());
  }
  g_server = nullptr;
  std::printf("clean shutdown\n");
  return kExitOk;
}
