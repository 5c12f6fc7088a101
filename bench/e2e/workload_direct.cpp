// paper_direct: closed loop of core::predict_labels passes over 256 clips
// at 128 px through the paper's 12-layer network in batches of 64 — the
// call BnnHotspotDetector::predict makes and the path behind Table 3's
// runtime column. Channels up to 256 wide make the XNOR kernel and patch
// packing dominate; scan and serve are absent.
#include "common.h"
#include "core/trainer.h"
#include "dataset/dataset.h"
#include "harness.h"
#include "util/stopwatch.h"

namespace hotspot::e2e {

void run_paper_direct(const Options& options, Report& report) {
  constexpr std::int64_t kGrid = 128;
  constexpr int kBatch = 64;
  const dataset::PatternParams params;
  const std::int64_t side = options.smoke ? 2 : 16;
  const auto clips = static_cast<std::size_t>(side * side);
  const layout::Pattern chip = build_chip(
      make_tiles(options.seed, clips, params), {}, side, params);
  scan::ScanConfig config;
  config.window_nm = params.clip_nm;
  config.grid = kGrid;
  const std::vector<tensor::Tensor> rasters =
      window_rasters(chip, config.window_nm, config.window_nm, kGrid,
                     sample_indices(0, clips, clips));
  dataset::HotspotDataset data;
  data.reserve(clips);
  for (const tensor::Tensor& raster : rasters) {
    data.add(dataset::ClipSample::from_image(raster, 0,
                                             dataset::Family::kDenseLines));
  }

  const TempDir dir(options);
  const std::string archive = dir.path() + "/model.bin";
  const core::BrnnConfig model_config = core::BrnnConfig::paper();
  write_archive(archive, model_config, options.seed, rasters);
  const std::vector<int> reference =
      reference_labels(archive, model_config, rasters);
  report.note(format("paper_direct: %zu clips at %lld px, batch %d, seed "
                     "%llu, pool %d threads; %s",
                     clips, static_cast<long long>(kGrid), kBatch,
                     static_cast<unsigned long long>(options.seed),
                     kPoolThreads, hotspot_share(reference).c_str()));

  reset_peak_rss();
  const std::unique_ptr<core::BrnnModel> model = timed_setup(
      options, archive, model_config, stack(rasters, 0, 1), report);

  std::vector<double> rates;
  std::vector<double> seconds;
  std::vector<double> cpu_us;
  PredictTally tally;
  auto pass_loop = [&](double budget_s) {
    rates.clear();
    seconds.clear();
    cpu_us.clear();
    repeat_for(budget_s, 3, [&] {
      std::vector<int> labels;
      const double cpu_start = cpu_seconds();
      util::Stopwatch timer;
      {
        HOTSPOT_TRACE_SPAN("e2e.predict_labels");
        labels = core::predict_labels(*model, data, kBatch);
      }
      const double elapsed = timer.seconds();
      cpu_us.push_back((cpu_seconds() - cpu_start) * 1e6 /
                       static_cast<double>(clips));
      tally.seconds += elapsed;
      tally.clips += static_cast<std::int64_t>(clips);
      tally.calls += (static_cast<std::int64_t>(clips) + kBatch - 1) / kBatch;
      check_labels(labels, reference, report);
      rates.push_back(static_cast<double>(clips) / elapsed);
      seconds.push_back(elapsed);
    });
  };

  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  pass_loop(budget);
  report.set("cpu_us_per_clip", median(cpu_us));
  report.set("peak_rss_mb", peak_rss_mb());
  report.set("wall.clips_per_s", median(rates));
  report.note(format("%zu passes, median %.1f us CPU per clip, %.1f clips/s, "
                     "%.1f ms per pass",
                     rates.size(), median(cpu_us), median(rates),
                     median(seconds) * 1e3));
  if (!options.trace) {
    return;
  }

  const double untraced_cpu_us = median(cpu_us);
  begin_trace();
  model->reset_profile();
  tally = PredictTally{};
  pass_loop(budget);
  report_core_layers(*model, obs::collect_span_report(), tally, report);
  replay_layers(options, chip, config, *model, rasters, {}, report);
  replay_serve(options, make_serve_inputs(options, chip, dir.path()), report);
  end_trace(options, report);
  report_packed_over_float(archive, model_config, rasters, report);
  report_trace_overhead(untraced_cpu_us, median(cpu_us), report);
}

}  // namespace hotspot::e2e
