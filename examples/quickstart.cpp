// Quickstart: generate a small benchmark, train the binarized residual
// network, evaluate it with the paper's metrics, and save the model.
//
//   ./examples/quickstart [scale] [--metrics-out <path>] [--trace-out <path>]
//
// `scale` is the fraction of the paper's Table-2 sample counts to generate
// (default 0.02 so the whole run takes well under a minute on one core).
// `--metrics-out` enables trace spans and writes a JSON metrics snapshot
// (per-epoch training metrics, layer/phase timings, ODST components,
// manifest). `--trace-out` additionally records an event timeline and
// writes it as Chrome trace-event JSON.
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>

#include "cli_util.h"
#include "core/bnn_detector.h"
#include "dataset/generator.h"
#include "eval/evaluation.h"
#include "nn/serialize.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace {

std::string iso_timestamp() {
  const std::time_t now = std::time(nullptr);
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ",
                std::gmtime(&now));
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hotspot;
  using namespace hotspot::examples;
  util::set_log_level(util::LogLevel::kInfo);
  double scale = 0.02;
  std::string metrics_out;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics-out") {
      if (i + 1 >= argc) {
        return usage_error("--metrics-out requires a path", nullptr);
      }
      metrics_out = argv[++i];
    } else if (arg == "--trace-out") {
      if (i + 1 >= argc) {
        return usage_error("--trace-out requires a path", nullptr);
      }
      trace_out = argv[++i];
    } else if (!parse_positive_double(arg.c_str(), &scale)) {
      return usage_error("scale must be a positive number", arg.c_str());
    }
  }
  if (!metrics_out.empty() || !trace_out.empty()) {
    obs::set_trace_enabled(true);
  }
  if (!trace_out.empty()) {
    obs::set_timeline_enabled(true);
  }
  constexpr std::int64_t kImageSize = 32;

  // 1. Synthesize an ICCAD-2012-like benchmark: Manhattan clips labelled by
  //    the lithography proxy (see DESIGN.md for the substitution).
  std::printf("Generating benchmark at scale %.3f...\n", scale);
  const dataset::Benchmark bench = dataset::generate_benchmark(
      dataset::iccad2012_config(scale, kImageSize));
  std::printf("  train: %zu clips (%lld hotspots)\n", bench.train.size(),
              static_cast<long long>(bench.train.stats().hotspots));
  std::printf("  test:  %zu clips (%lld hotspots)\n\n", bench.test.size(),
              static_cast<long long>(bench.test.stats().hotspots));

  // 2. Train the paper's detector: 8-layer compact BRNN (the 12-layer
  //    config is BrnnConfig::paper()), NAdam, flips, plateau LR decay, then
  //    the biased finetune.
  core::BnnDetectorConfig config = core::BnnDetectorConfig::compact(kImageSize);
  config.trainer.verbose = true;
  core::BnnHotspotDetector detector(config);
  util::Rng rng(42);
  std::printf("Training %s...\n", detector.name().c_str());
  const eval::EvaluationRow row =
      eval::evaluate_detector(detector, bench.train, bench.test, rng);

  // 3. Report with the paper's metrics (Eq. 1-3).
  std::printf("\nResults on the held-out split:\n");
  std::printf("  confusion: %s\n", row.matrix.to_string().c_str());
  std::printf("  accuracy (hotspot recall): %.1f%%\n",
              row.matrix.accuracy() * 100.0);
  std::printf("  false alarms: %lld\n",
              static_cast<long long>(row.matrix.false_alarm()));
  std::printf("  runtime: %.2f s (packed XNOR-popcount inference)\n",
              row.eval_seconds);
  std::printf("  ODST (t_ls = 10 s): %.0f s\n", row.odst(10.0));

  // 4. Persist the trained model for deploy_inference. The write is atomic
  //    (tmp + fsync + rename), so a crash here cannot leave a torn file; a
  //    reported failure means the model was NOT saved and the run must not
  //    pretend otherwise.
  const char* path = "quickstart_model.bin";
  if (const nn::SaveResult saved = nn::save_checkpoint(path, detector.model());
      !saved.ok()) {
    std::fprintf(stderr, "error: failed to save model (%s): %s\n",
                 util::io_status_name(saved.status), saved.message.c_str());
    return kExitRuntime;
  }
  std::printf("\nSaved trained model to %s (run ./deploy_inference next).\n",
              path);

  if (!metrics_out.empty()) {
    const obs::RunManifest manifest = obs::collect_manifest(iso_timestamp());
    if (!obs::write_metrics_json(metrics_out,
                                 obs::MetricsRegistry::global().snapshot(),
                                 obs::collect_span_report(), &manifest)) {
      std::fprintf(stderr, "error: failed to write metrics to %s\n",
                   metrics_out.c_str());
      return kExitRuntime;
    }
    std::printf("Wrote metrics snapshot to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    if (!obs::write_chrome_trace(trace_out, obs::collect_timeline())) {
      std::fprintf(stderr, "error: failed to write trace to %s\n",
                   trace_out.c_str());
      return kExitRuntime;
    }
    std::printf("Wrote Chrome trace to %s (open in chrome://tracing or "
                "https://ui.perfetto.dev)\n", trace_out.c_str());
  }
  return kExitOk;
}
