// Deployment: load a trained checkpoint (from ./quickstart) into a fresh
// model and classify clips through its compiled XNOR-popcount inference
// plan (each BN -> Binarize -> BinaryConv block packs the sign bits of the
// BN output, evaluated inline, DESIGN.md §14) — the workflow of shipping
// the detector into a physical-verification flow.
//
//   ./examples/quickstart && ./examples/deploy_inference quickstart_model.bin
//
// With --metrics-out <path>, per-layer trace spans are enabled and a JSON
// metrics snapshot (registry + span aggregates + manifest for the packed
// run) is written on exit, along with a per-layer roofline table joining
// the span timings with the analytic cost model:
//
//   ./examples/deploy_inference quickstart_model.bin --metrics-out metrics.json
//
// With --trace-out <path>, a Chrome trace-event timeline of the packed run
// is written (open in chrome://tracing or https://ui.perfetto.dev).
#include <cstdio>
#include <ctime>
#include <string>

#include "cli_util.h"
#include "core/brnn.h"
#include "core/roofline.h"
#include "dataset/generator.h"
#include "nn/serialize.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "util/stopwatch.h"

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
  std::string model_path = "quickstart_model.bin";
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
    } else if (arg.rfind("--", 0) == 0) {
      // A mistyped flag used to be taken as the model path and surface as a
      // confusing "cannot load checkpoint" error.
      return usage_error("unknown flag", arg.c_str());
    } else {
      model_path = arg;
    }
  }
  // Span recording costs one clock read per instrumented scope; leave it
  // off unless a snapshot was requested.
  if (!metrics_out.empty() || !trace_out.empty()) {
    obs::set_trace_enabled(true);
  }
  if (!trace_out.empty()) {
    obs::set_timeline_enabled(true);
  }
  constexpr std::int64_t kImageSize = 32;

  // The checkpoint format is strict about architecture, so construct the
  // same configuration quickstart trained.
  util::Rng rng(0);
  core::BrnnModel model(core::BrnnConfig::compact(kImageSize), rng);
  // Refuse to run on anything but a fully validated checkpoint: a missing,
  // truncated, or bit-flipped file must never silently classify with
  // uninitialized weights.
  if (const nn::LoadResult loaded = nn::load_checkpoint(model_path, model);
      !loaded.ok()) {
    std::fprintf(stderr, "error: cannot load checkpoint (%s): %s\n",
                 util::io_status_name(loaded.status), loaded.message.c_str());
    if (loaded.status == util::IoStatus::kMissing) {
      std::fprintf(stderr, "Run ./quickstart first to train and save %s.\n",
                   model_path.c_str());
    }
    return kExitRuntime;
  }
  model.set_training(false);
  std::printf("Loaded %s (%lld parameters; conv weights deploy as 1 bit "
              "each).\n\n",
              model_path.c_str(),
              static_cast<long long>(model.parameter_count()));

  // Classify freshly generated clips and time both engines.
  const dataset::BenchmarkConfig config =
      dataset::iccad2012_config(0.01, kImageSize);
  util::Rng gen_rng(123);
  dataset::HotspotDataset clips =
      dataset::generate_split(config, config.test, gen_rng);
  const auto indices = clips.all_indices();
  const tensor::Tensor images = clips.batch_images(indices);

  model.forward(images);  // warm-up compiles the inference plan
  obs::reset_spans();     // scope the span report to the timed runs
  obs::reset_timeline();
  model.reset_profile();  // keep roofline sample counts in the same window
  util::Stopwatch packed_timer;
  std::vector<int> labels;
  {
    obs::TraceSpan inference_span("inference.total");
    labels = model.predict(images);
  }
  const double packed_seconds = packed_timer.seconds();
  // Span aggregates (and timeline/profile counters) of the packed run
  // alone, before the float-sim reference re-enters the same layers.
  const obs::SpanReport packed_spans = obs::collect_span_report();
  const obs::TimelineReport packed_timeline = obs::collect_timeline();
  const core::RooflineReport roofline =
      core::build_roofline(model, packed_spans);

  model.set_backend(core::Backend::kFloatSim);
  util::Stopwatch float_timer;
  model.forward(images);
  const double float_seconds = float_timer.seconds();

  int flagged = 0;
  int correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    flagged += labels[i];
    correct += labels[i] == clips.sample(i).label ? 1 : 0;
  }
  std::printf("Classified %zu clips: %d flagged as hotspots, %d labels "
              "agree with the litho oracle.\n",
              labels.size(), flagged, correct);
  std::printf("Packed XNOR-popcount: %.3f s (%.2f ms/clip)\n", packed_seconds,
              1e3 * packed_seconds / static_cast<double>(labels.size()));
  std::printf("Float-sim reference:  %.3f s -> binarization speedup %.1fx "
              "at these (CI-scale) channel widths\n",
              float_seconds, float_seconds / packed_seconds);

  if (!metrics_out.empty()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.gauge("inference.packed_seconds").set(packed_seconds);
    registry.gauge("inference.float_sim_seconds").set(float_seconds);
    registry.gauge("inference.clips")
        .set(static_cast<double>(labels.size()));

    // Sanity-check the instrumentation itself: the per-layer spans should
    // account for (nearly) all of the measured packed inference wall time.
    // The plan nests brnn.conv.* inside brnn.layer.* wrappers, so only the
    // wrappers are summed.
    double layer_seconds = 0.0;
    for (const auto& [name, stat] : packed_spans.spans) {
      if (name.rfind("brnn.layer.", 0) == 0) {
        layer_seconds += stat.total_seconds;
      }
    }
    std::printf("Per-layer spans cover %.3f s of %.3f s measured packed "
                "inference (%.1f%%).\n",
                layer_seconds, packed_seconds,
                packed_seconds > 0.0 ? 100.0 * layer_seconds / packed_seconds
                                     : 0.0);
    std::printf("\nPer-layer roofline (packed run):\n%s\n",
                core::to_table(roofline).c_str());

    const obs::RunManifest manifest = obs::collect_manifest(iso_timestamp());
    if (!obs::write_metrics_json(metrics_out, registry.snapshot(),
                                 packed_spans, &manifest)) {
      std::fprintf(stderr, "error: failed to write metrics to %s\n",
                   metrics_out.c_str());
      return kExitRuntime;
    }
    std::printf("Wrote metrics snapshot to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    if (!obs::write_chrome_trace(trace_out, packed_timeline)) {
      std::fprintf(stderr, "error: failed to write trace to %s\n",
                   trace_out.c_str());
      return kExitRuntime;
    }
    std::printf("Wrote Chrome trace to %s (open in chrome://tracing or "
                "https://ui.perfetto.dev)\n", trace_out.c_str());
  }
  return kExitOk;
}
