// scan_tiled and scan_unique: closed loops of back-to-back
// ScanPipeline::scan calls over a generated chip.
//
// scan_tiled is a repeated-standard-cell chip (256 x 256 tiles from a
// 16-tile library, stride = clip): nearly every window is a dedup hit, so
// window streaming, rasterization and dedup do the work and inference does
// almost none. scan_unique is a 20 x 20 chip of distinct tiles at half-clip
// stride with a 1024-entry dedup cap: nearly every window pays inference,
// and dedup does only misses, inserts and LRU evictions.
#include "common.h"
#include "harness.h"
#include "scan/window_stream.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace hotspot::e2e {
namespace {

constexpr std::size_t kReferenceSample = 512;
// scan_tiled's cell library: kLibrarySide^2 cells from a fixed seed.
constexpr std::int64_t kLibrarySide = 4;
constexpr std::uint64_t kLibrarySeed = 2019;

struct ScanShape {
  std::int64_t tiles_per_side = 0;
  bool tiled = false;  // cells of the library, else every tile distinct
  bool half_stride = false;
  std::size_t dedup_max_entries = 0;
};

void run_scan(const Options& options, const ScanShape& shape,
              Report& report) {
  const dataset::PatternParams params;
  const std::int64_t side = shape.tiles_per_side;
  const auto tile_count = static_cast<std::size_t>(side * side);
  const std::size_t library =
      shape.tiled ? static_cast<std::size_t>(kLibrarySide * kLibrarySide)
                  : tile_count;
  // A library is fixed, like a standard-cell library, and so is the model
  // that classifies it; the seed places the library, each cell filling the
  // same share of the chip. Every seed then scans the same cells with the
  // same verdicts in another order, and the cost of merging flagged windows
  // into regions does not swing with how many cells one model flags.
  // Distinct tiles and their model come from the seed.
  const std::uint64_t input_seed = shape.tiled ? kLibrarySeed : options.seed;
  const std::vector<layout::Pattern> tiles =
      make_tiles(input_seed, library, params);
  std::vector<std::size_t> placement;
  if (shape.tiled) {
    util::Rng rng(options.seed ^ 0x91ace);
    for (const std::size_t slot : rng.permutation(tile_count)) {
      placement.push_back(slot % library);
    }
  }
  const layout::Pattern chip = build_chip(tiles, placement, side, params);

  scan::ScanConfig config;
  config.window_nm = params.clip_nm;
  config.step_nm = shape.half_stride ? params.clip_nm / 2 : 0;
  config.grid = kCompactGrid;
  config.dedup_max_entries = shape.dedup_max_entries;
  const std::int64_t step =
      config.step_nm > 0 ? config.step_nm : config.window_nm;
  const std::int64_t windows =
      scan::ClipWindowStream(chip, config.window_nm, step).window_count();

  // Verification sample: seeded windows, labelled by the float-sim model.
  const std::vector<std::size_t> sample = sample_indices(
      options.seed ^ 0x5a3b1e, static_cast<std::size_t>(windows),
      kReferenceSample);
  const std::vector<tensor::Tensor> sample_rasters =
      window_rasters(chip, config.window_nm, step, kCompactGrid, sample);
  const TempDir dir(options);
  const std::string archive = dir.path() + "/model.bin";
  const core::BrnnConfig model_config = core::BrnnConfig::compact(kCompactGrid);
  write_archive(archive, model_config, input_seed,
                shape.tiled
                    ? window_rasters(build_chip(tiles, {}, kLibrarySide, params),
                                     params.clip_nm, params.clip_nm,
                                     kCompactGrid,
                                     sample_indices(0, library, library))
                    : sample_rasters);
  const std::vector<int> reference =
      reference_labels(archive, model_config, sample_rasters);
  report.note(format("%s: %lld windows, %zu library tiles, seed %llu, "
                     "pool %d threads; %s",
                     options.workload.c_str(), static_cast<long long>(windows),
                     library, static_cast<unsigned long long>(options.seed),
                     kPoolThreads, hotspot_share(reference).c_str()));

  reset_peak_rss();
  const std::unique_ptr<core::BrnnModel> model = timed_setup(
      options, archive, model_config, stack(sample_rasters, 0, 1), report);

  // The classifier the pipeline calls, timed from outside.
  PredictTally tally;
  scan::ScanPipeline pipeline(config, [&](const tensor::Tensor& images) {
    HOTSPOT_TRACE_SPAN("e2e.predict");
    util::Stopwatch timer;
    std::vector<int> labels = model->predict(images);
    tally.seconds += timer.seconds();
    tally.clips += images.dim(0);
    ++tally.calls;
    return labels;
  });

  // Back-to-back scans until the budget is spent: windows/s and seconds
  // per scan, every sampled verdict checked.
  std::vector<scan::ScanStats> stats;
  std::vector<double> rates;
  std::vector<double> seconds;
  std::vector<double> cpu_us;
  auto scan_loop = [&](double budget_s) {
    stats.clear();
    rates.clear();
    seconds.clear();
    cpu_us.clear();
    repeat_for(budget_s, 3, [&] {
      scan::ScanResult result;
      const double cpu_start = cpu_seconds();
      util::Stopwatch timer;
      {
        HOTSPOT_TRACE_SPAN("e2e.scan");
        result = pipeline.scan(chip);
      }
      const double elapsed = timer.seconds();
      cpu_us.push_back((cpu_seconds() - cpu_start) * 1e6 /
                       static_cast<double>(result.labels.size()));
      std::vector<int> sampled;
      for (const std::size_t index : sample) {
        sampled.push_back(result.labels[index]);
      }
      check_labels(sampled, reference, report);
      report.attempted +=
          static_cast<std::int64_t>(result.labels.size() - sample.size());
      report.failed += result.stats.quarantined;
      rates.push_back(static_cast<double>(result.labels.size()) / elapsed);
      seconds.push_back(elapsed);
      stats.push_back(result.stats);
    });
  };

  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  scan_loop(budget);
  report.set("cpu_us_per_clip", median(cpu_us));
  report.set("peak_rss_mb", peak_rss_mb());
  report.set("wall.clips_per_s", median(rates));
  report.note(format("%zu scans, median %.3f us CPU per window, %.1f "
                     "windows/s, %.1f ms per scan, dedup hit rate %.4f",
                     rates.size(), median(cpu_us), median(rates),
                     median(seconds) * 1e3, stats.back().dedup_hit_rate()));
  if (!options.trace) {
    return;
  }

  const double untraced_cpu_us = median(cpu_us);
  begin_trace();
  model->reset_profile();
  tally = PredictTally{};
  scan_loop(budget);
  report_core_layers(*model, obs::collect_span_report(), tally, report);
  replay_layers(options, chip, config, *model, sample_rasters, stats, report);
  replay_serve(options, ServeInputs{archive, sample_rasters, reference},
               report);
  end_trace(options, report);
  report_packed_over_float(archive, model_config, sample_rasters, report);
  report_trace_overhead(untraced_cpu_us, median(cpu_us), report);
}

}  // namespace

void run_scan_tiled(const Options& options, Report& report) {
  ScanShape shape;
  shape.tiles_per_side = options.smoke ? 16 : 256;
  shape.tiled = true;
  run_scan(options, shape, report);
}

void run_scan_unique(const Options& options, Report& report) {
  ScanShape shape;
  shape.tiles_per_side = options.smoke ? 6 : 20;
  shape.half_stride = true;
  shape.dedup_max_entries = options.smoke ? 64 : 1024;
  run_scan(options, shape, report);
}

}  // namespace hotspot::e2e
