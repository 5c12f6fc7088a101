// bench_e2e: the end-to-end benchmark of the hotspot detector (README.md in
// this directory has the workloads, metrics and how to run it).
//
//   bench_e2e --workload <name> --seed N --seconds S --trace 0|1
//       one workload in this process; the last stdout line is the result:
//       {"correct", "attempted", "failed", "metrics"}, every end-to-end
//       metric untraced, every per-layer metric traced.
//   bench_e2e [--seed N] [--seconds S] [--trace [0|1]]
//       every workload, each in its own process, then a summary.
//   bench_e2e --smoke [--benchmark-json BENCHMARK.json]
//       every workload at tiny size in both modes; checks that each
//       declared metric prints finite with its unit and nothing failed.
//
// Exit status: 0 when every operation succeeded and matched the float-sim
// reference, 1 on any failure, 2 on a bad invocation.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "util/json.h"
#include "util/parallel.h"

namespace {

using namespace hotspot;
using namespace hotspot::e2e;

const char* const kWorkloads[] = {"scan_tiled", "scan_unique", "serve_open",
                                  "paper_direct"};

int usage(const char* message) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e [--workload NAME] [--seed N] [--seconds S] "
               "[--trace [0|1]] [--smoke] [--out-dir DIR] "
               "[--benchmark-json PATH]\n",
               message);
  return 2;
}

bool parse_number(const char* text, double min, double max, double* out) {
  if (text == nullptr) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(value) ||
      value < min || value > max) {
    return false;
  }
  *out = value;
  return true;
}

int run_workload(const Options& options) {
  util::set_parallel_threads(kPoolThreads);
  std::filesystem::create_directories(options.out_dir);
  Report report;
  const std::string& name = options.workload;
  if (name == "scan_tiled") {
    run_scan_tiled(options, report);
  } else if (name == "scan_unique") {
    run_scan_unique(options, report);
  } else if (name == "serve_open") {
    run_serve_open(options, report);
  } else if (name == "paper_direct") {
    run_paper_direct(options, report);
  } else {
    return usage(("unknown workload '" + name + "'").c_str());
  }
  if (!report.print(options.trace)) {
    return 1;
  }
  return report.failed == 0 && report.attempted > 0 ? 0 : 1;
}

// Runs this binary on one workload in a child process; returns its exit
// status and fills `output` with its stdout.
int spawn_workload(const Options& options, const std::string& workload,
                   bool trace, std::string* output) {
  std::vector<std::string> args = {
      "bench_e2e",      "--workload", workload,
      "--seed",         std::to_string(options.seed),
      "--seconds",      format("%.17g", options.seconds),
      "--trace",        trace ? "1" : "0",
      "--out-dir",      options.out_dir};
  if (options.smoke) {
    args.push_back("--smoke");
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    std::perror("bench_e2e: pipe");
    return 1;
  }
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("bench_e2e: fork");
    return 1;
  }
  if (pid == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    std::vector<char*> argv;
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    ::execv("/proc/self/exe", argv.data());
    std::perror("bench_e2e: exec");
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(pipe_fds[0], buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    output->append(buffer, static_cast<std::size_t>(n));
  }
  ::close(pipe_fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}

std::string last_line(const std::string& text) {
  std::size_t end = text.find_last_not_of('\n');
  if (end == std::string::npos) {
    return "";
  }
  const std::size_t begin = text.rfind('\n', end);
  return text.substr(begin == std::string::npos ? 0 : begin + 1,
                     end - (begin == std::string::npos ? 0 : begin + 1) + 1);
}

// Checks one result line against the declared metrics of its mode.
bool check_result(const std::string& workload, bool trace,
                  const std::string& line, util::JsonValue* result) {
  std::string error;
  if (!util::parse_json(line, *result, error) || !result->is_object()) {
    std::fprintf(stderr, "%s: result line is not JSON: %s\n",
                 workload.c_str(), error.c_str());
    return false;
  }
  const util::JsonValue* correct = result->find("correct");
  const util::JsonValue* attempted = result->find("attempted");
  const util::JsonValue* failed = result->find("failed");
  const util::JsonValue* metrics = result->find("metrics");
  if (correct == nullptr || !correct->is_bool() || attempted == nullptr ||
      !attempted->is_number() || failed == nullptr || !failed->is_number() ||
      metrics == nullptr || !metrics->is_object() || result->size() != 4) {
    std::fprintf(stderr, "%s: result line lacks its four keys\n",
                 workload.c_str());
    return false;
  }
  bool ok = true;
  if (!correct->as_bool() || failed->as_number() != 0.0 ||
      attempted->as_number() < 1.0) {
    std::fprintf(stderr, "%s: %.0f of %.0f operations failed\n",
                 workload.c_str(), failed->as_number(),
                 attempted->as_number());
    ok = false;
  }
  std::size_t expected = 0;
  for (const MetricDef& metric : declared_metrics()) {
    if (metric.end_to_end == trace) {
      continue;
    }
    ++expected;
    const util::JsonValue* entry = metrics->find(metric.name);
    const util::JsonValue* value =
        entry != nullptr ? entry->find("value") : nullptr;
    const util::JsonValue* unit =
        entry != nullptr ? entry->find("unit") : nullptr;
    if (value == nullptr || !value->is_number() ||
        !std::isfinite(value->as_number()) || unit == nullptr ||
        !unit->is_string() || unit->as_string() != metric.unit) {
      std::fprintf(stderr, "%s: metric %s missing, not finite or not in %s\n",
                   workload.c_str(), metric.name.c_str(), metric.unit.c_str());
      ok = false;
    }
  }
  if (metrics->size() != expected) {
    std::fprintf(stderr, "%s: %zu metrics printed, %zu declared\n",
                 workload.c_str(), metrics->size(), expected);
    ok = false;
  }
  return ok;
}

// BENCHMARK.json must declare exactly the workloads and metrics this
// binary measures.
bool check_benchmark_json(const std::string& path) {
  util::JsonValue root;
  std::string error;
  if (!util::parse_json_file(path, root, error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  bool ok = true;
  auto check_list = [&](const char* key, bool end_to_end) {
    const util::JsonValue* list = root.find(key);
    std::vector<std::string> declared;
    for (const MetricDef& metric : declared_metrics()) {
      if (metric.end_to_end == end_to_end) {
        declared.push_back(metric.name + " " + metric.unit);
      }
    }
    std::vector<std::string> listed;
    if (list != nullptr && list->is_array()) {
      for (const util::JsonValue& item : list->as_array()) {
        const util::JsonValue* name = item.find("name");
        const util::JsonValue* unit = item.find("unit");
        if (name != nullptr && name->is_string() && unit != nullptr &&
            unit->is_string()) {
          listed.push_back(name->as_string() + " " + unit->as_string());
        }
      }
    }
    if (listed != declared) {
      std::fprintf(stderr, "%s: \"%s\" does not match the metrics bench_e2e "
                           "declares\n", path.c_str(), key);
      ok = false;
    }
  };
  check_list("end_to_end", true);
  check_list("per_layer", false);
  std::vector<std::string> workloads;
  if (const util::JsonValue* list = root.find("workloads");
      list != nullptr && list->is_array()) {
    for (const util::JsonValue& item : list->as_array()) {
      if (const util::JsonValue* name = item.find("name");
          name != nullptr && name->is_string()) {
        workloads.push_back(name->as_string());
      }
    }
  }
  if (workloads != std::vector<std::string>(std::begin(kWorkloads),
                                            std::end(kWorkloads))) {
    std::fprintf(stderr, "%s: workloads differ from bench_e2e's\n",
                 path.c_str());
    ok = false;
  }
  return ok;
}

int run_all(const Options& options, const std::string& benchmark_json) {
  bool ok = benchmark_json.empty() || check_benchmark_json(benchmark_json);
  std::vector<bool> modes = {options.trace};
  if (options.smoke) {
    modes = {false, true};
  }
  std::vector<std::string> summary;
  for (const char* workload : kWorkloads) {
    for (const bool trace : modes) {
      std::string output;
      const int status = spawn_workload(options, workload, trace, &output);
      std::printf("=== %s (trace %d) ===\n%s", workload, trace ? 1 : 0,
                  output.c_str());
      util::JsonValue result;
      const bool checked =
          check_result(workload, trace, last_line(output), &result);
      if (status != 0 || !checked) {
        std::fprintf(stderr, "%s (trace %d): exit %d%s\n", workload,
                     trace ? 1 : 0, status,
                     checked ? "" : ", result check failed");
        ok = false;
        continue;
      }
      std::string row = format("%-13s ops %-9.0f failed %-3.0f", workload,
                               result.find("attempted")->as_number(),
                               result.find("failed")->as_number());
      for (const auto& [name, entry] :
           result.find("metrics")->as_object()) {
        if (trace) {
          continue;
        }
        row += format(" %s %.6g %s", name.c_str(),
                      entry.find("value")->as_number(),
                      entry.find("unit")->as_string().c_str());
      }
      summary.push_back(row);
    }
  }
  std::printf("=== summary (seed %llu) ===\n",
              static_cast<unsigned long long>(options.seed));
  for (const std::string& row : summary) {
    std::printf("%s\n", row.c_str());
  }
  std::printf("%s\n", ok ? "all workloads passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.out_dir = "bench_e2e_out";
  std::string benchmark_json;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    double number = 0.0;
    if (arg == "--workload" && value != nullptr) {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      if (!parse_number(value, 0, 9007199254740991.0, &number) ||
          number != std::floor(number)) {
        return usage("--seed expects a non-negative integer");
      }
      options.seed = static_cast<std::uint64_t>(number);
      ++i;
    } else if (arg == "--seconds") {
      if (!parse_number(value, 0.05, 3600, &number)) {
        return usage("--seconds expects a number in [0.05, 3600]");
      }
      options.seconds = number;
      ++i;
    } else if (arg == "--trace") {
      // A bare --trace means --trace 1.
      options.trace = true;
      if (value != nullptr && (std::strcmp(value, "0") == 0 ||
                               std::strcmp(value, "1") == 0)) {
        options.trace = value[0] == '1';
        ++i;
      }
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--out-dir" && value != nullptr) {
      options.out_dir = argv[++i];
    } else if (arg == "--benchmark-json" && value != nullptr) {
      benchmark_json = argv[++i];
    } else {
      return usage(("unknown or incomplete argument '" + arg + "'").c_str());
    }
  }
  if (options.smoke && options.workload.empty()) {
    options.seconds = std::min(options.seconds, 0.3);
  }
  if (!options.workload.empty()) {
    return run_workload(options);
  }
  return run_all(options, benchmark_json);
}
