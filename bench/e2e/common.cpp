#include "common.h"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "bitops/kernels/xnor_kernel.h"
#include "bitops/scaling.h"
#include "bitops/xnor_gemm.h"
#include "core/packed_conv.h"
#include "core/roofline.h"
#include "harness.h"
#include "nn/serialize.h"
#include "obs/export.h"
#include "scan/dedup_cache.h"
#include "scan/window_stream.h"
#include "serve/protocol.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace hotspot::e2e {

std::string format(const char* fmt, ...) {
  char buffer[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  return buffer;
}

// --- Metrics -----------------------------------------------------------

const std::vector<MetricDef>& declared_metrics() {
  static const std::vector<MetricDef> metrics = [] {
    std::vector<MetricDef> list = {
        {"setup_s", "s", true},
        {"cpu_us_per_clip", "us", true},
        {"peak_rss_mb", "MB", true},
        {"wall.clips_per_s", "clips/s", false},
        {"nn.load_ms", "ms", false},
        {"core.warmup_ms", "ms", false},
        {"serve.start_ms", "ms", false},
        {"layout.raster_us_per_window", "us", false},
        {"scan.stream_us_per_window", "us", false},
        {"scan.dedup_us_per_window", "us", false},
        {"scan.dedup_hit_rate", "ratio", false},
        {"scan.dedup_evictions", "count", false},
        {"scan.raster_s", "s", false},
        {"scan.infer_s", "s", false},
        {"scan.total_s", "s", false},
        {"scan.hidden_s", "s", false},
        {"scan.raster_residual_s", "s", false},
        {"scan.batch_clips_mean", "clips", false},
        {"core.predict_ms_per_clip", "ms", false},
        {"core.batch_clips_mean", "clips", false},
    };
    for (const char* group : {"stem", "first_block", "mid_blocks",
                              "last_block", "head_fc", "unattributed"}) {
      list.push_back({format("core.layer.%s.ms_per_clip", group), "ms", false});
    }
    for (const char* group :
         {"stem", "first_block", "mid_blocks", "last_block"}) {
      list.push_back({format("core.layer.%s.gops", group), "Gop/s", false});
    }
    list.push_back({"core.float_sim_clips_per_s", "clips/s", false});
    list.push_back({"core.packed_over_float", "ratio", false});
    for (const char* shape : {"paper_block4a", "compact_stem"}) {
      list.push_back({format("bitops.xnor_gemm_gwords_per_s.%s", shape),
                      "Gword/s", false});
    }
    for (const char* shape : {"paper_stem", "compact_stem"}) {
      list.push_back({format("bitops.pack_patches_ms.%s", shape), "ms", false});
    }
    list.push_back({"serve.protocol_us_per_request", "us", false});
    for (const char* phase : {"low", "high"}) {
      const std::string prefix = format("serve.%s.", phase);
      list.push_back({prefix + "p50_ms", "ms", false});
      list.push_back({prefix + "tail_ms", "ms", false});
      for (const char* stage : {"decode", "queue", "batch", "infer", "encode"}) {
        list.push_back({prefix + stage + "_ms_p50", "ms", false});
      }
      list.push_back({prefix + "queue_ms_p99", "ms", false});
      list.push_back({prefix + "infer_ms_p99", "ms", false});
      list.push_back({prefix + "wire_ms_p50", "ms", false});
      list.push_back({prefix + "batch_clips_mean", "clips", false});
      list.push_back({prefix + "gen_late_ms_tail", "ms", false});
    }
    list.push_back({"serve.closed_loop_clips_per_s", "clips/s", false});
    list.push_back({"serve.goodput_clips_per_s", "clips/s", false});
    list.push_back({"obs.trace_overhead_pct", "%", false});
    return list;
  }();
  return metrics;
}

void Report::set(const std::string& name, double value) {
  const auto& metrics = declared_metrics();
  if (std::none_of(metrics.begin(), metrics.end(),
                   [&](const MetricDef& m) { return m.name == name; })) {
    std::fprintf(stderr, "bench_e2e: undeclared metric %s\n", name.c_str());
    std::exit(3);
  }
  values_[name] = value;
}

void Report::note(const std::string& line) { notes_.push_back(line); }

bool Report::print(bool trace) const {
  for (const std::string& line : notes_) {
    std::printf("%s\n", line.c_str());
  }
  std::string metrics;
  for (const MetricDef& metric : declared_metrics()) {
    if (metric.end_to_end == trace) {
      continue;
    }
    const auto it = values_.find(metric.name);
    if (it == values_.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "bench_e2e: metric %s %s\n", metric.name.c_str(),
                   it == values_.end() ? "was not measured" : "is not finite");
      return false;
    }
    metrics += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", metric.name.c_str(),
                      it->second, metric.unit.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      failed == 0 && attempted > 0 ? "true" : "false",
      static_cast<long long>(attempted), static_cast<long long>(failed),
      metrics.c_str());
  std::fflush(stdout);
  return true;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  if (!clear_refs) {
    std::fprintf(stderr, "bench_e2e: cannot reset the peak RSS through "
                         "/proc/self/clear_refs\n");
    std::exit(1);
  }
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  std::fprintf(stderr, "bench_e2e: no VmHWM in /proc/self/status\n");
  std::exit(1);
}

double cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

// --- Inputs ------------------------------------------------------------

std::vector<layout::Pattern> make_tiles(std::uint64_t seed, std::size_t count,
                                        const dataset::PatternParams& params) {
  util::Rng rng(seed);
  std::vector<layout::Pattern> tiles;
  tiles.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto family =
        static_cast<dataset::Family>(i % dataset::kFamilyCount);
    tiles.push_back(dataset::generate_pattern(family, params, rng));
  }
  return tiles;
}

layout::Pattern build_chip(const std::vector<layout::Pattern>& tiles,
                           const std::vector<std::size_t>& placement,
                           std::int64_t side,
                           const dataset::PatternParams& params) {
  const std::int64_t clip = params.clip_nm;
  const std::int64_t mark = params.grid_nm;
  std::vector<layout::Rect> rects;
  rects.push_back({0, 0, mark, mark});
  for (std::int64_t y = 0; y < side; ++y) {
    for (std::int64_t x = 0; x < side; ++x) {
      const auto slot = static_cast<std::size_t>(y * side + x);
      const layout::Pattern& tile =
          tiles[placement.empty() ? slot : placement[slot]];
      for (layout::Rect rect : tile.rects()) {
        rect.x0 += x * clip;
        rect.x1 += x * clip;
        rect.y0 += y * clip;
        rect.y1 += y * clip;
        rects.push_back(rect);
      }
    }
  }
  rects.push_back({side * clip - mark, side * clip - mark, side * clip,
                   side * clip});
  return layout::Pattern(std::move(rects));
}

std::vector<tensor::Tensor> window_rasters(
    const layout::Pattern& chip, std::int64_t window_nm, std::int64_t step_nm,
    std::int64_t grid, const std::vector<std::size_t>& indices) {
  const scan::ClipWindowStream stream(chip, window_nm, step_nm);
  std::vector<tensor::Tensor> rasters;
  rasters.reserve(indices.size());
  for (const std::size_t index : indices) {
    rasters.push_back(
        stream.materialize(stream.window_at(static_cast<std::int64_t>(index)))
            .binary(grid));
  }
  return rasters;
}

tensor::Tensor stack(const std::vector<tensor::Tensor>& rasters,
                     std::size_t begin, std::size_t count) {
  const std::int64_t numel = rasters.front().numel();
  const auto grid = static_cast<std::int64_t>(
      std::lround(std::sqrt(static_cast<double>(numel))));
  tensor::Tensor batch(
      tensor::Shape{static_cast<std::int64_t>(count), 1, grid, grid});
  for (std::size_t i = 0; i < count; ++i) {
    const tensor::Tensor& raster = rasters[(begin + i) % rasters.size()];
    std::copy(raster.data(), raster.data() + numel,
              batch.data() + static_cast<std::int64_t>(i) * numel);
  }
  return batch;
}

std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t n,
                                        std::size_t limit) {
  std::vector<std::size_t> indices;
  if (n <= limit) {
    for (std::size_t i = 0; i < n; ++i) {
      indices.push_back(i);
    }
    return indices;
  }
  util::Rng rng(seed);
  indices = rng.permutation(n);
  indices.resize(limit);
  std::sort(indices.begin(), indices.end());
  return indices;
}

// --- Models ------------------------------------------------------------

void write_archive(const std::string& path, const core::BrnnConfig& config,
                   std::uint64_t seed,
                   const std::vector<tensor::Tensor>& calibration) {
  util::Rng rng(seed);
  core::BrnnModel model(config, rng);
  // Batch-norm statistics from three training-mode forwards over the
  // workload's own rasters, so verdicts are not all one class.
  model.set_training(true);
  const std::size_t batch = std::min<std::size_t>(16, calibration.size());
  for (std::size_t i = 0; i < 3; ++i) {
    model.forward(stack(calibration, i * batch, batch));
  }
  model.set_training(false);
  if (!nn::save_checkpoint(path, model).ok()) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

std::unique_ptr<core::BrnnModel> load_model(const std::string& path,
                                            const core::BrnnConfig& config,
                                            core::Backend backend) {
  // The constructed weights are placeholders: load_checkpoint overwrites
  // every tensor or fails.
  util::Rng rng(0);
  auto model = std::make_unique<core::BrnnModel>(config, rng);
  const nn::LoadResult loaded = nn::load_checkpoint(path, *model);
  if (!loaded.ok()) {
    std::fprintf(stderr, "bench_e2e: cannot load %s: %s\n", path.c_str(),
                 loaded.message.c_str());
    std::exit(1);
  }
  model->set_training(false);
  model->set_backend(backend);
  return model;
}

namespace {

constexpr std::size_t kPredictBatch = 64;

// Labels of `model` over the rasters in batches of kPredictBatch, with the
// seconds spent inside predict.
std::vector<int> predict_all(core::BrnnModel& model,
                             const std::vector<tensor::Tensor>& rasters,
                             double* seconds) {
  std::vector<int> labels;
  labels.reserve(rasters.size());
  *seconds = 0.0;
  for (std::size_t begin = 0; begin < rasters.size();
       begin += kPredictBatch) {
    const tensor::Tensor batch =
        stack(rasters, begin, std::min(kPredictBatch, rasters.size() - begin));
    util::Stopwatch timer;
    const std::vector<int> out = model.predict(batch);
    *seconds += timer.seconds();
    labels.insert(labels.end(), out.begin(), out.end());
  }
  return labels;
}

}  // namespace

std::vector<int> reference_labels(const std::string& archive,
                                  const core::BrnnConfig& config,
                                  const std::vector<tensor::Tensor>& rasters) {
  double seconds = 0.0;
  return predict_all(*load_model(archive, config, core::Backend::kFloatSim),
                     rasters, &seconds);
}

std::string hotspot_share(const std::vector<int>& labels) {
  const auto flagged = std::count(labels.begin(), labels.end(), 1);
  return format("%zu reference verdicts, %.1f%% hotspots", labels.size(),
                100.0 * static_cast<double>(flagged) /
                    static_cast<double>(std::max<std::size_t>(
                        labels.size(), 1)));
}

void check_labels(const std::vector<int>& labels,
                  const std::vector<int>& expected, Report& report) {
  report.attempted += static_cast<std::int64_t>(expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    report.failed += i < labels.size() && labels[i] == expected[i] ? 0 : 1;
  }
}

TempDir::TempDir(const Options& options)
    : path_(options.out_dir + "/tmp-" + options.workload + "-" +
            std::to_string(::getpid())) {
  std::filesystem::create_directories(path_);
}

TempDir::~TempDir() {
  std::error_code error;
  std::filesystem::remove_all(path_, error);
}

// --- Set-up ------------------------------------------------------------

void report_setup(const std::vector<SetupTiming>& setups, bool serve,
                  Report& report) {
  std::vector<double> total;
  std::vector<double> load;
  std::vector<double> start;
  std::vector<double> warmup;
  std::vector<double> cpu;
  for (const SetupTiming& setup : setups) {
    cpu.push_back(setup.cpu_s);
    total.push_back(setup.total());
    load.push_back(setup.load_s);
    start.push_back(setup.start_s);
    warmup.push_back(setup.warmup_s);
  }
  report.set("setup_s", median(cpu));
  report.set("nn.load_ms", median(load) * 1e3);
  report.set("core.warmup_ms", median(warmup) * 1e3);
  if (serve) {
    report.set("serve.start_ms", median(start) * 1e3);
  }
  const Quartiles q = quartiles(cpu);
  report.note(format("set-up (median of %zu): %.3f ms CPU (quartiles "
                     "%.3f-%.3f); wall %.3f ms = load %.3f + start %.3f + "
                     "first verdict %.3f",
                     setups.size(), q.q2 * 1e3, q.q1 * 1e3, q.q3 * 1e3,
                     median(total) * 1e3, median(load) * 1e3,
                     median(start) * 1e3, median(warmup) * 1e3));
}

int setup_repetitions(const Options& options) {
  return options.smoke ? 3 : 31;
}

std::unique_ptr<core::BrnnModel> timed_setup(const Options& options,
                                             const std::string& archive,
                                             const core::BrnnConfig& config,
                                             const tensor::Tensor& first_clip,
                                             Report& report) {
  std::unique_ptr<core::BrnnModel> model;
  std::vector<SetupTiming> setups;
  for (int r = 0; r < setup_repetitions(options); ++r) {
    model.reset();
    SetupTiming setup;
    const double cpu_start = cpu_seconds();
    util::Stopwatch load_timer;
    model = load_model(archive, config, core::Backend::kPacked);
    setup.load_s = load_timer.seconds();
    util::Stopwatch warmup_timer;
    model->predict(first_clip);
    setup.warmup_s = warmup_timer.seconds();
    setup.cpu_s = cpu_seconds() - cpu_start;
    setups.push_back(setup);
  }
  report_setup(setups, false, report);
  return model;
}

void repeat_for(double budget_s, int min_runs,
                const std::function<void()>& body) {
  util::Stopwatch timer;
  int runs = 0;
  while (runs < min_runs || timer.seconds() < budget_s) {
    body();
    ++runs;
  }
}

// --- Tracing -----------------------------------------------------------

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void begin_trace() {
  obs::reset_spans();
  obs::reset_timeline();
  obs::set_trace_enabled(true);
  obs::set_timeline_enabled(true);
}

void end_trace(const Options& options, Report& report,
               const std::vector<obs::TimelineEvent>& extra_events,
               const std::vector<obs::RequestTrace>& requests) {
  obs::TimelineReport timeline = obs::collect_timeline();
  const obs::SpanReport spans = obs::collect_span_report();
  obs::set_timeline_enabled(false);
  obs::set_trace_enabled(false);
  timeline.events.insert(timeline.events.end(), extra_events.begin(),
                         extra_events.end());
  std::stable_sort(timeline.events.begin(), timeline.events.end(),
                   [](const obs::TimelineEvent& a,
                      const obs::TimelineEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  const std::string path =
      options.out_dir + "/" + options.workload + ".trace.json";
  std::ofstream out(path);
  out << obs::to_chrome_trace(timeline, requests) << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  report.note(format("chrome trace: %s (%zu events, %llu dropped, %zu "
                     "request lanes)",
                     path.c_str(), timeline.events.size(),
                     static_cast<unsigned long long>(timeline.dropped),
                     requests.size()));
  // Span table, heaviest self time first.
  std::vector<std::pair<std::string, obs::SpanStat>> rows = spans.spans;
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_seconds > b.second.self_seconds;
  });
  report.note(format("%-40s %10s %12s %12s", "span", "count", "total_ms",
                     "self_ms"));
  for (std::size_t i = 0; i < rows.size() && i < 24; ++i) {
    report.note(format("%-40s %10llu %12.3f %12.3f", rows[i].first.c_str(),
                       static_cast<unsigned long long>(rows[i].second.count),
                       rows[i].second.total_seconds * 1e3,
                       rows[i].second.self_seconds * 1e3));
  }
}

namespace {

// `after` minus `before`, span by span: the spans of one traced window.
obs::SpanReport span_delta(const obs::SpanReport& after,
                           const obs::SpanReport& before) {
  obs::SpanReport delta;
  for (const auto& [name, stat] : after.spans) {
    obs::SpanStat window = stat;
    if (const obs::SpanStat* earlier = before.find(name)) {
      window.count -= earlier->count;
      window.total_seconds -= earlier->total_seconds;
      window.self_seconds -= earlier->self_seconds;
    }
    if (window.count > 0) {
      delta.spans.emplace_back(name, window);
    }
  }
  return delta;
}

}  // namespace

void report_core_layers(const core::BrnnModel& model,
                        const obs::SpanReport& spans,
                        const PredictTally& tally, Report& report) {
  const core::RooflineReport roofline = core::build_roofline(model, spans);
  const std::string last_block =
      format("brnn.conv.block%zu", model.config().block_filters.size());
  // Groups of roofline rows: block1 convs are the first block; "block1"
  // must not also claim block10 and up.
  auto group_of = [&](const std::string& label) -> std::string {
    if (label == "brnn.conv.stem") {
      return "stem";
    }
    if (label == "brnn.layer.head_fc") {
      return "head_fc";
    }
    const std::string block = label.substr(
        0, label.find_first_not_of("0123456789", sizeof("brnn.conv.block") - 1));
    if (block == "brnn.conv.block1") {
      return "first_block";
    }
    return block == last_block ? "last_block" : "mid_blocks";
  };
  struct Group {
    double seconds = 0.0;
    double ops = 0.0;
  };
  std::map<std::string, Group> groups;
  for (const core::RooflineLayer& layer : roofline.layers) {
    Group& group = groups[group_of(layer.label)];
    group.seconds += layer.seconds;
    group.ops += layer.bitops + layer.float_ops;
  }
  const double per_clip_ms = 1e3 / static_cast<double>(tally.clips);
  for (const char* group :
       {"stem", "first_block", "mid_blocks", "last_block", "head_fc"}) {
    report.set(format("core.layer.%s.ms_per_clip", group),
               groups[group].seconds * per_clip_ms);
  }
  for (const char* group :
       {"stem", "first_block", "mid_blocks", "last_block"}) {
    report.set(format("core.layer.%s.gops", group),
               groups[group].seconds > 0.0
                   ? groups[group].ops / groups[group].seconds / 1e9
                   : 0.0);
  }
  const double unattributed = tally.seconds - roofline.total_seconds;
  report.set("core.layer.unattributed.ms_per_clip",
             unattributed * per_clip_ms);
  report.set("core.predict_ms_per_clip", tally.seconds * per_clip_ms);
  report.set("core.batch_clips_mean", static_cast<double>(tally.clips) /
                                          static_cast<double>(tally.calls));

  report.note("roofline (" + roofline.kernel + "):");
  for (const core::RooflineLayer& layer : roofline.layers) {
    report.note(format("  %-24s %-28s %10.4f ms/clip %8.2f Gop/s",
                       layer.label.c_str(), layer.geometry.c_str(),
                       layer.seconds * per_clip_ms, layer.gops_per_second));
  }
  // The layer rows are spans inside the timed calls, so they can only add
  // up to less than the benchmark's own timing; a negative remainder beyond
  // clock rounding means the rows and the timing cover different windows.
  const double share = unattributed / tally.seconds;
  report.note(format(
      "closure: predict %.4f ms/clip = layer rows %.4f + unattributed %.4f "
      "(%.1f%%) -> %s",
      tally.seconds * per_clip_ms, roofline.total_seconds * per_clip_ms,
      unattributed * per_clip_ms, 100.0 * share,
      share >= -0.005 ? "closes" : "DOES NOT CLOSE"));
  if (roofline.samples != static_cast<std::uint64_t>(tally.clips)) {
    report.note(format("closure: roofline saw %llu samples, benchmark %lld",
                       static_cast<unsigned long long>(roofline.samples),
                       static_cast<long long>(tally.clips)));
  }
}

void replay_core(core::BrnnModel& model,
                 const std::vector<tensor::Tensor>& rasters,
                 std::int64_t batch, Report& report) {
  HOTSPOT_TRACE_SPAN("e2e.replay.core");
  std::vector<tensor::Tensor> batches;
  for (std::size_t begin = 0; begin < rasters.size();
       begin += static_cast<std::size_t>(batch)) {
    batches.push_back(stack(
        rasters, begin,
        std::min(static_cast<std::size_t>(batch), rasters.size() - begin)));
  }
  model.reset_profile();
  const obs::SpanReport before = obs::collect_span_report();
  PredictTally tally;
  for (const tensor::Tensor& images : batches) {
    HOTSPOT_TRACE_SPAN("e2e.predict");
    util::Stopwatch timer;
    model.predict(images);
    tally.seconds += timer.seconds();
    tally.clips += images.dim(0);
    ++tally.calls;
  }
  report_core_layers(model, span_delta(obs::collect_span_report(), before),
                     tally, report);
}

void report_packed_over_float(const std::string& archive,
                              const core::BrnnConfig& config,
                              const std::vector<tensor::Tensor>& rasters,
                              Report& report) {
  HOTSPOT_TRACE_SPAN("e2e.replay.packed_over_float");
  const std::vector<tensor::Tensor> sample(
      rasters.begin(),
      rasters.begin() +
          static_cast<std::ptrdiff_t>(std::min(kPredictBatch, rasters.size())));
  auto float_sim = load_model(archive, config, core::Backend::kFloatSim);
  auto packed = load_model(archive, config, core::Backend::kPacked);
  std::vector<double> float_rates;
  std::vector<double> packed_rates;
  const auto clips = static_cast<double>(sample.size());
  double seconds = 0.0;
  predict_all(*packed, sample, &seconds);  // packs the weights
  for (int round = 0; round < 3; ++round) {
    predict_all(*float_sim, sample, &seconds);
    float_rates.push_back(clips / seconds);
    predict_all(*packed, sample, &seconds);
    packed_rates.push_back(clips / seconds);
  }
  const double float_rate = median(float_rates);
  const double packed_rate = median(packed_rates);
  report.set("core.float_sim_clips_per_s", float_rate);
  report.set("core.packed_over_float", packed_rate / float_rate);
  report.note(format("fig. 1 ratio: packed %.1f clips/s over float-sim %.1f "
                     "clips/s = %.2fx (%zu clips in one batch, median of 3)",
                     packed_rate, float_rate, packed_rate / float_rate,
                     sample.size()));
}

namespace {

// Window stream, raster and dedup passes over the chip, each timed as a
// whole pass; returns the pass times for the closure row.
struct FrontEndTimes {
  double stream_s = 0.0;
  double raster_s = 0.0;
  double dedup_s = 0.0;
};

FrontEndTimes replay_front_end(const layout::Pattern& chip,
                               const scan::ScanConfig& config,
                               Report& report) {
  const std::int64_t step =
      config.step_nm > 0 ? config.step_nm : config.window_nm;
  scan::ClipWindowStream stream(chip, config.window_nm, step);
  const auto n = static_cast<std::size_t>(stream.window_count());
  FrontEndTimes times;

  std::vector<layout::Clip> clips;
  clips.reserve(n);
  {
    HOTSPOT_TRACE_SPAN("e2e.replay.stream");
    util::Stopwatch timer;
    scan::WindowRef ref;
    while (stream.next(ref)) {
      clips.push_back(stream.materialize(ref));
    }
    times.stream_s = timer.seconds();
  }
  const std::int64_t pixels = config.grid * config.grid;
  std::vector<scan::RasterKey> keys(
      n, scan::RasterKey(static_cast<std::size_t>(pixels)));
  {
    HOTSPOT_TRACE_SPAN("e2e.replay.raster");
    util::Stopwatch timer;
    for (std::size_t i = 0; i < n; ++i) {
      const tensor::Tensor raster = clips[i].binary(config.grid);
      const float* src = raster.data();
      for (std::int64_t p = 0; p < pixels; ++p) {
        keys[i][static_cast<std::size_t>(p)] = src[p] != 0.0f ? 1 : 0;
      }
    }
    times.raster_s = timer.seconds();
  }
  scan::RasterDedupCache cache(config.dedup_max_entries,
                               config.dedup_max_bytes);
  std::size_t hits = 0;
  {
    HOTSPOT_TRACE_SPAN("e2e.replay.dedup");
    util::Stopwatch timer;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t hash = scan::hash_raster(keys[i]);
      if (cache.find(hash, keys[i]) >= 0) {
        ++hits;
      } else {
        cache.insert(hash, keys[i], static_cast<std::int64_t>(i));
      }
    }
    times.dedup_s = timer.seconds();
  }
  const double per_window_us = 1e6 / static_cast<double>(n);
  report.set("scan.stream_us_per_window", times.stream_s * per_window_us);
  report.set("layout.raster_us_per_window", times.raster_s * per_window_us);
  report.set("scan.dedup_us_per_window", times.dedup_s * per_window_us);
  report.set("scan.dedup_hit_rate",
             static_cast<double>(hits) / static_cast<double>(n));
  report.set("scan.dedup_evictions", static_cast<double>(cache.evictions()));
  return times;
}

// The scan.* rows from ScanStats medians, with the closure row: the
// producer time ScanStats reports against the three replayed passes.
void report_scan_stats(const std::vector<scan::ScanStats>& scans,
                       const FrontEndTimes& front_end, Report& report) {
  std::vector<double> raster;
  std::vector<double> infer;
  std::vector<double> total;
  std::vector<double> hidden;
  std::vector<double> batch_clips;
  for (const scan::ScanStats& stats : scans) {
    raster.push_back(stats.raster_seconds);
    infer.push_back(stats.infer_seconds);
    total.push_back(stats.total_seconds);
    hidden.push_back(stats.raster_seconds + stats.infer_seconds -
                     stats.total_seconds);
    batch_clips.push_back(
        stats.batches > 0 ? static_cast<double>(stats.unique_windows) /
                                static_cast<double>(stats.batches)
                          : 0.0);
  }
  const double replay =
      front_end.stream_s + front_end.raster_s + front_end.dedup_s;
  const double raster_s = median(raster);
  report.set("scan.raster_s", raster_s);
  report.set("scan.infer_s", median(infer));
  report.set("scan.total_s", median(total));
  report.set("scan.hidden_s", median(hidden));
  report.set("scan.batch_clips_mean", median(batch_clips));
  report.set("scan.raster_residual_s", raster_s - replay);
  report.note(format(
      "closure: ScanStats.raster_s %.4f s = stream %.4f + raster %.4f + "
      "dedup %.4f (replays) + residual %.4f s (%.1f%%)",
      raster_s, front_end.stream_s, front_end.raster_s, front_end.dedup_s,
      raster_s - replay, 100.0 * (raster_s - replay) / raster_s));
}

struct ConvShape {
  const char* name;
  std::int64_t in_channels;
  std::int64_t out_channels;
  std::int64_t size;  // input height = width
  std::int64_t stride;
  bool report_pack;    // bitops.pack_patches_ms.<name>
  bool report_kernel;  // bitops.xnor_gemm_gwords_per_s.<name>
};

// Median seconds of `fn` over repeats filling about `budget_s`.
double median_call_seconds(double budget_s, const std::function<void()>& fn) {
  std::vector<double> samples;
  util::Stopwatch total;
  do {
    util::Stopwatch timer;
    fn();
    samples.push_back(timer.seconds());
  } while (total.seconds() < budget_s || samples.size() < 3);
  return median(samples);
}

// bitops replays at fixed layer shapes: the channel-blocked patch packing
// and the per-channel XNOR kernel the default (per-channel) model runs.
void replay_bitops(const Options& options, Report& report) {
  HOTSPOT_TRACE_SPAN("e2e.replay.bitops");
  const double budget = options.smoke ? 0.01 : 0.15;
  const std::int64_t batch = options.smoke ? 4 : 64;
  // Layer shapes of the paper network at 128 px and the compact network at
  // 32 px (BrnnConfig::paper / compact).
  const ConvShape shapes[] = {{"paper_stem", 1, 16, 128, 2, true, false},
                              {"compact_stem", 1, 8, 32, 1, true, true},
                              {"paper_block4a", 64, 128, 8, 2, false, true}};
  const bitops::XnorKernel& kernel = bitops::active_xnor_kernel();
  util::Rng rng(options.seed);
  for (const ConvShape& shape : shapes) {
    const std::string name = shape.name;
    const tensor::ConvSpec spec{3, 3, shape.stride, 1};
    const tensor::Tensor input = tensor::Tensor::uniform(
        {batch, shape.in_channels, shape.size, shape.size}, rng, -1.0f, 1.0f);
    const tensor::Tensor weight = tensor::Tensor::uniform(
        {shape.out_channels, shape.in_channels, 3, 3}, rng, -1.0f, 1.0f);
    bitops::BitMatrix patches;
    tensor::Tensor alpha_t;
    const double pack_s = median_call_seconds(budget, [&] {
      patches = bitops::pack_patches_channel_blocked(input, spec);
      alpha_t = bitops::input_scales_per_channel(input, spec);
    });
    if (shape.report_pack) {
      report.set("bitops.pack_patches_ms." + name, pack_s * 1e3);
    }
    if (!shape.report_kernel) {
      continue;
    }
    const bitops::BitMatrix filters =
        bitops::pack_filters_channel_blocked(weight);
    const tensor::Tensor alpha_w = bitops::weight_scales(weight);
    const std::int64_t out =
        tensor::conv_out_extent(shape.size, 3, shape.stride, 1);
    tensor::Tensor output({batch, shape.out_channels, out, out});
    const double kernel_s = median_call_seconds(budget, [&] {
      core::packed_conv_per_channel(kernel, patches, filters, alpha_t,
                                    alpha_w, shape.in_channels,
                                    shape.out_channels, 9, output);
    });
    // One XOR+popcount word per (position, filter, input channel).
    const double words = static_cast<double>(batch * out * out) *
                         static_cast<double>(shape.out_channels) *
                         static_cast<double>(shape.in_channels);
    report.set("bitops.xnor_gemm_gwords_per_s." + name,
               words / kernel_s / 1e9);
  }
}

// serve.protocol_us_per_request: pack_rasters + encode/decode request +
// unpack_rasters over the rasters in 1/4/16-clip requests.
void replay_protocol(const std::vector<tensor::Tensor>& rasters,
                     Report& report) {
  HOTSPOT_TRACE_SPAN("e2e.replay.protocol");
  const std::vector<Arrival> sizes = poisson_schedule(7, 1.0, 256);
  const auto grid = static_cast<std::uint16_t>(
      std::lround(std::sqrt(static_cast<double>(rasters.front().numel()))));
  std::vector<tensor::Tensor> requests;
  std::size_t cursor = 0;
  for (const Arrival& arrival : sizes) {
    requests.push_back(
        stack(rasters, cursor, static_cast<std::size_t>(arrival.clips)));
    cursor += static_cast<std::size_t>(arrival.clips);
  }
  std::size_t unpacked = 0;
  const double seconds = median_call_seconds(0.1, [&] {
    for (const tensor::Tensor& images : requests) {
      const auto count = static_cast<std::size_t>(images.dim(0));
      serve::PredictRequest request;
      request.request_id = 1;
      request.grid = grid;
      request.tenant = "e2e";
      request.count = static_cast<std::uint16_t>(count);
      request.packed_clips = serve::pack_rasters(images.data(), count, grid);
      const std::vector<std::uint8_t> payload =
          serve::encode_predict_request(request);
      serve::PredictRequest decoded;
      if (!serve::decode_predict_request(payload, &decoded)) {
        std::fprintf(stderr, "bench_e2e: protocol replay failed to decode\n");
        std::exit(1);
      }
      unpacked +=
          serve::unpack_rasters(decoded.packed_clips, count, grid).size();
    }
  });
  if (unpacked == 0) {
    std::fprintf(stderr, "bench_e2e: protocol replay unpacked nothing\n");
    std::exit(1);
  }
  report.set("serve.protocol_us_per_request",
             seconds * 1e6 / static_cast<double>(requests.size()));
}

}  // namespace

void replay_layers(const Options& options, const layout::Pattern& chip,
                   const scan::ScanConfig& config, core::BrnnModel& model,
                   const std::vector<tensor::Tensor>& rasters,
                   std::vector<scan::ScanStats> scans, Report& report) {
  if (scans.empty()) {
    HOTSPOT_TRACE_SPAN("e2e.replay.scan");
    scan::ScanPipeline pipeline(config, [&](const tensor::Tensor& images) {
      return model.predict(images);
    });
    scans.push_back(pipeline.scan(chip).stats);
  }
  const FrontEndTimes front_end = replay_front_end(chip, config, report);
  report_scan_stats(scans, front_end, report);
  replay_bitops(options, report);
  replay_protocol(rasters, report);
}

void report_trace_overhead(double untraced_cpu_us, double traced_cpu_us,
                           Report& report) {
  const double pct = (traced_cpu_us / untraced_cpu_us - 1.0) * 100.0;
  report.set("obs.trace_overhead_pct", pct);
  report.note(format("trace overhead: %.3f us CPU per clip untraced, %.3f "
                     "traced (%+.2f%%)",
                     untraced_cpu_us, traced_cpu_us, pct));
}

}  // namespace hotspot::e2e
