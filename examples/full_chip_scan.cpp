// Full-chip scan: the deployment workload the intro motivates — sweep a
// trained detector over every clip window of a full layout and spend
// lithography simulation only on the flagged regions (ODST, Eq. 3). The
// detector is a checkpoint saved by ./quickstart; nothing is trained here.
//
// Runs on the streaming scan subsystem (src/scan/): windows come from a
// lazy ClipWindowStream instead of an eagerly materialized clip vector,
// duplicate window rasters are deduplicated so tiled geometry pays
// inference once, and rasterization of batch N+1 overlaps classification
// of batch N on a double-buffered pipeline.
//
//   ./examples/full_chip_scan <model.bin> [tiles] [--stride <nm>]
//                             [--metrics-out <path>] [--trace-out <path>]
//                             [--journal <path>] [--resume]
//                             [--window-deadline-ms <ms>]
//
//   model.bin      compact 32 px BRNN checkpoint (./quickstart writes
//                  quickstart_model.bin); a missing or damaged file exits 1
//   tiles          chip edge length in pattern tiles (default 4, >= 1)
//   --stride       scan stride in nm (default: clip size = non-overlapping;
//                  halve it for an overlapping scan)
//   --metrics-out  write a JSON metrics snapshot (scan counters + spans +
//                  manifest)
//   --trace-out    write a Chrome trace-event timeline of the scan; open in
//                  chrome://tracing or https://ui.perfetto.dev
//   --journal      append every completed scan batch to a crash-safe
//                  journal at <path> (fsync per batch; the journal is the
//                  only recovery record)
//   --resume       recover the journal's state and scan only the remaining
//                  windows; the final result is bit-identical to an
//                  uninterrupted run (requires --journal)
//   --window-deadline-ms  per-window attempt budget; windows that fail past
//                  the retry budget are quarantined, not hung on
//
// Exits 0 on success, 1 on runtime failure (including quarantined
// windows — the printed results are then partial), 2 on a bad invocation.
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <string>
#include <vector>

#include "cli_util.h"
#include "core/brnn.h"
#include "core/roofline.h"
#include "dataset/generator.h"
#include "eval/metrics.h"
#include "litho/simulator.h"
#include "nn/serialize.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scan/pipeline.h"
#include "util/stopwatch.h"

namespace {

using namespace hotspot;

// A chip made of pattern-family tiles laid out on a grid.
layout::Pattern build_chip(const dataset::PatternParams& params,
                           util::Rng& rng, int tiles_per_side) {
  layout::Pattern chip;
  for (int ty = 0; ty < tiles_per_side; ++ty) {
    for (int tx = 0; tx < tiles_per_side; ++tx) {
      const auto family = static_cast<dataset::Family>(
          rng.uniform_int(0, dataset::kFamilyCount - 1));
      layout::Pattern tile = dataset::generate_pattern(family, params, rng);
      tile.translate(tx * params.clip_nm, ty * params.clip_nm);
      for (const auto& rect : tile.rects()) {
        chip.add(rect);
      }
    }
  }
  return chip;
}

std::string iso_timestamp() {
  const std::time_t now = std::time(nullptr);
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ",
                std::gmtime(&now));
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hotspot::examples;
  std::string model_path;
  bool have_tiles = false;
  long tiles = 4;
  long stride_nm = 0;  // 0 = clip size (non-overlapping)
  long window_deadline_ms = 0;
  std::string metrics_out;
  std::string trace_out;
  std::string journal_path;
  bool resume = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stride") {
      if (i + 1 >= argc || !parse_positive(argv[i + 1], 1L << 30, &stride_nm)) {
        return usage_error(
            "--stride requires a positive integer number of nanometres",
            i + 1 < argc ? argv[i + 1] : nullptr);
      }
      ++i;
    } else if (arg == "--window-deadline-ms") {
      if (i + 1 >= argc ||
          !parse_positive(argv[i + 1], 1L << 30, &window_deadline_ms)) {
        return usage_error(
            "--window-deadline-ms requires a positive integer number of "
            "milliseconds",
            i + 1 < argc ? argv[i + 1] : nullptr);
      }
      ++i;
    } else if (arg == "--journal") {
      if (i + 1 >= argc) {
        return usage_error("--journal requires a path", nullptr);
      }
      journal_path = argv[++i];
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--metrics-out") {
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
      return usage_error("unknown flag", arg.c_str());
    } else if (model_path.empty()) {
      model_path = arg;
    } else if (have_tiles) {
      return usage_error("unexpected positional argument", arg.c_str());
    } else if (!parse_positive(arg.c_str(), 64, &tiles)) {
      // An unvalidated atoi here used to turn garbage (or "0") into an
      // empty chip and a divide-by-zero in the ODST printout.
      return usage_error("tiles must be an integer in [1, 64]", arg.c_str());
    } else {
      have_tiles = true;
    }
  }
  if (model_path.empty()) {
    return usage_error(
        "full_chip_scan needs <model.bin> (./quickstart writes "
        "quickstart_model.bin)",
        nullptr);
  }
  if (resume && journal_path.empty()) {
    return usage_error("--resume requires --journal", "--resume");
  }
  if (!metrics_out.empty() || !trace_out.empty()) {
    obs::set_trace_enabled(true);
  }
  if (!trace_out.empty()) {
    obs::set_timeline_enabled(true);
  }
  constexpr std::int64_t kImageSize = 32;

  // The checkpoint format is strict about architecture: build the compact
  // configuration quickstart trains, then load its weights.
  util::Rng init_rng(0);
  core::BrnnModel model(core::BrnnConfig::compact(kImageSize), init_rng);
  if (const nn::LoadResult loaded = nn::load_checkpoint(model_path, model);
      !loaded.ok()) {
    std::fprintf(stderr, "error: cannot load checkpoint (%s): %s\n",
                 util::io_status_name(loaded.status), loaded.message.c_str());
    return kExitRuntime;
  }
  model.set_training(false);
  std::printf("Loaded detector %s\n", model_path.c_str());

  // The chip and the oracle use the process parameters of the generated
  // benchmark quickstart trains on.
  const dataset::BenchmarkConfig config =
      dataset::iccad2012_config(0.04, kImageSize);

  // Build the chip and stream clip windows over it.
  util::Rng chip_rng(99);
  const layout::Pattern chip =
      build_chip(config.pattern, chip_rng, static_cast<int>(tiles));
  // Default stride = clip size: every window sees whole pattern tiles, the
  // distribution the detector was trained on. (An overlapping --stride
  // exposes straddling, out-of-distribution windows.)
  scan::ScanConfig scan_config;
  scan_config.window_nm = config.pattern.clip_nm;
  scan_config.step_nm = stride_nm > 0 ? stride_nm : config.pattern.clip_nm;
  scan_config.grid = kImageSize;
  scan_config.window_deadline_ms = static_cast<int>(window_deadline_ms);
  scan_config.journal_path = journal_path;
  scan_config.resume = resume;
  scan::ScanPipeline pipeline(
      scan_config,
      [&model](const tensor::Tensor& images) { return model.predict(images); });
  scan::ScanResult result;
  try {
    result = pipeline.scan(chip);
  } catch (const std::exception& error) {
    // Journal open/append failure or an injected abort. The journal (if
    // any) keeps every completed batch; a --resume run picks up from it.
    std::fprintf(stderr, "error: scan failed: %s\n", error.what());
    return kExitRuntime;
  }
  if (result.stats.resume_skipped > 0) {
    std::printf("Resumed from %s: %lld of %lld windows recovered from the "
                "journal\n",
                journal_path.c_str(),
                static_cast<long long>(result.stats.resume_skipped),
                static_cast<long long>(result.labels.size()));
  }
  std::printf("Chip: %ld x %ld tiles, %zu rects, %lld clip windows "
              "(%lld x %lld grid, stride %lld nm)\n\n",
              tiles, tiles, chip.rects().size(),
              static_cast<long long>(result.labels.size()),
              static_cast<long long>(result.cols),
              static_cast<long long>(result.rows),
              static_cast<long long>(result.step_nm));
  if (result.labels.empty()) {
    std::printf("Chip has no geometry — nothing to scan.\n");
    return kExitOk;
  }

  // Cross-check against the lithography oracle (the expensive step the
  // detector exists to avoid running everywhere).
  const litho::Simulator simulator(config.litho);
  scan::ClipWindowStream oracle_stream(chip, scan_config.window_nm,
                                       scan_config.step_nm);
  eval::ConfusionMatrix matrix;
  util::Stopwatch litho_timer;
  scan::WindowRef ref;
  layout::Clip clip{layout::Pattern(), scan_config.window_nm};
  std::vector<std::uint32_t> candidates;
  while (oracle_stream.next(ref)) {
    oracle_stream.materialize(ref, clip.pattern, candidates);
    matrix.record(simulator.is_hotspot(clip) ? 1 : 0,
                  result.labels[static_cast<std::size_t>(ref.index)]);
  }
  const double litho_seconds = litho_timer.seconds();

  const scan::ScanStats& stats = result.stats;
  const auto window_count = static_cast<double>(result.labels.size());
  const double scan_seconds = stats.total_seconds;
  std::printf("Scan results:\n");
  std::printf("  windows flagged hotspot: %lld of %lld, merged into %zu "
              "regions\n",
              static_cast<long long>(result.flagged_count()),
              static_cast<long long>(result.labels.size()),
              result.regions.size());
  for (const scan::HotspotRegion& region : result.regions) {
    std::printf("    region [%lld,%lld)x[%lld,%lld): %lld windows, "
                "litho budget %.0f s at t_ls = 10 s\n",
                static_cast<long long>(region.bounds.x0),
                static_cast<long long>(region.bounds.x1),
                static_cast<long long>(region.bounds.y0),
                static_cast<long long>(region.bounds.y1),
                static_cast<long long>(region.window_count),
                region.odst(10.0, 0.0));
  }
  std::printf("  dedup: %lld of %lld windows served from cache (%.0f%% hit "
              "rate; %lld by geometry alone, %.0f%%), %lld batches\n",
              static_cast<long long>(stats.dedup_hits),
              static_cast<long long>(stats.windows),
              100.0 * stats.dedup_hit_rate(),
              static_cast<long long>(stats.memo_hits),
              100.0 * stats.memo_hit_rate(),
              static_cast<long long>(stats.batches));
  if (stats.retries > 0 || stats.quarantined > 0) {
    std::printf("  fault tolerance: %lld retries, %lld windows "
                "quarantined\n",
                static_cast<long long>(stats.retries),
                static_cast<long long>(stats.quarantined));
  }
  std::printf("  oracle check: %s\n", matrix.to_string().c_str());
  std::printf("  detection accuracy: %.1f%%, false alarms: %lld\n",
              matrix.accuracy() * 100.0,
              static_cast<long long>(matrix.false_alarm()));
  std::printf("  detector scan: %.2f s (raster %.2f s || infer %.2f s); "
              "full litho of every window (what the detector replaces): "
              "%.2f s here, hours on a real simulator\n",
              scan_seconds, stats.raster_seconds, stats.infer_seconds,
              litho_seconds);
  std::printf("  ODST at t_ls = 10 s: %.0f s vs %.0f s for simulate-"
              "everything\n",
              result.odst(10.0, scan_seconds / window_count),
              10.0 * window_count);

  if (obs::trace_enabled()) {
    // Per-layer roofline over the scan's traced forwards.
    const core::RooflineReport roofline =
        core::build_roofline(model, obs::collect_span_report());
    std::printf("\nPer-layer roofline (scan forwards):\n%s\n",
                core::to_table(roofline).c_str());
  }

  if (!metrics_out.empty()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.gauge("scan.seconds").set(scan_seconds);
    registry.gauge("scan.dedup.hit_rate").set(stats.dedup_hit_rate());
    registry.gauge("scan.memo.hit_rate").set(stats.memo_hit_rate());
    registry.gauge("scan.regions").set(
        static_cast<double>(result.regions.size()));
    const obs::RunManifest manifest = obs::collect_manifest(iso_timestamp());
    if (!obs::write_metrics_json(metrics_out, registry.snapshot(),
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
  if (result.stats.quarantined > 0) {
    // The printed results are partial: quarantined windows carry a
    // conservative 0 instead of a verdict. Succeeding here would let a
    // driving script mistake them for a clean scan.
    std::fprintf(stderr, "error: %lld windows were quarantined; results "
                         "above are partial\n",
                 static_cast<long long>(result.stats.quarantined));
    return kExitRuntime;
  }
  return kExitOk;
}
