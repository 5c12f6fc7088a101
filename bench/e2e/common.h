// Shared pieces of the end-to-end benchmark's workloads: the declared
// metric list, the result report, input generation, model archives, timed
// set-up, the float-sim reference, and the per-layer replays and traces.
//
// The benchmark measures each layer from outside, by timing the calls it
// makes into the public functions of layout, scan, core, bitops, nn and
// serve; it adds no instrumentation to the program.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/brnn.h"
#include "dataset/patterns.h"
#include "layout/geometry.h"
#include "obs/request_trace.h"
#include "obs/trace.h"
#include "scan/pipeline.h"
#include "tensor/tensor.h"

namespace hotspot::e2e {

// Pool width pinned by every workload (recorded in its output). The host is
// shared: wider pools measured slower than narrow ones at small batches.
inline constexpr int kPoolThreads = 2;

// Raster size of the compact model the scans and the server run.
inline constexpr std::int64_t kCompactGrid = 32;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;     // tiny inputs and budgets
  std::string out_dir;    // Chrome traces and temporary archives
};

// --- Metrics -----------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
  bool end_to_end;  // printed untraced; per-layer metrics print traced
};

// Every metric the benchmark declares, in print order. BENCHMARK.json lists
// the same names and units (the smoke test checks that they agree).
const std::vector<MetricDef>& declared_metrics();

// Metric values of one workload run plus its operation counts.
class Report {
 public:
  // `name` must be declared; its unit comes from the declaration.
  void set(const std::string& name, double value);

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  // Human-readable lines printed before the result line.
  void note(const std::string& line);

  // Prints the notes, then the result line: {"correct", "attempted",
  // "failed", "metrics"} with every end-to-end metric (trace off) or every
  // per-layer metric (trace on). Returns false, after printing why, when a
  // metric of that mode is missing or not finite.
  bool print(bool trace) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
};

// Returns the benchmark's freed memory to the system (malloc_trim) and
// restarts the process's peak-RSS watermark (/proc/self/clear_refs), so
// that peak_rss_mb() covers what follows and not input generation. Exits
// when the kernel refuses.
void reset_peak_rss();

// Peak resident set of this process since reset_peak_rss() (VmHWM), MB.
double peak_rss_mb();

// CPU time this process has used so far, all threads, user + system, s.
double cpu_seconds();

// --- Inputs ------------------------------------------------------------

// One Table-2 pattern-family tile per entry; families cycle through all six
// in a fixed order so a seed changes only the geometry, not the mix.
std::vector<layout::Pattern> make_tiles(std::uint64_t seed, std::size_t count,
                                        const dataset::PatternParams& params);

// A side x side chip of `tiles`, tile (x, y) = tiles[placement[y * side +
// x]]; an empty placement puts every tile once, in order. Two grid-sized
// corner marks pin the chip's bounding box to the tile grid, so scan
// windows line up with tiles.
layout::Pattern build_chip(const std::vector<layout::Pattern>& tiles,
                           const std::vector<std::size_t>& placement,
                           std::int64_t side,
                           const dataset::PatternParams& params);

// {0,1} rasters of the chip's windows at the given scan-order indices.
std::vector<tensor::Tensor> window_rasters(
    const layout::Pattern& chip, std::int64_t window_nm, std::int64_t step_nm,
    std::int64_t grid, const std::vector<std::size_t>& indices);

// Stacks `count` rasters starting at `begin` (wrapping around) into one
// [count, 1, grid, grid] batch.
tensor::Tensor stack(const std::vector<tensor::Tensor>& rasters,
                     std::size_t begin, std::size_t count);

// Up to `limit` distinct indices in [0, n), seeded, ascending.
std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t n,
                                        std::size_t limit);

// --- Models ------------------------------------------------------------

// Seeded weights with batch-norm statistics calibrated by three
// training-mode forwards over `calibration`, written with
// nn::save_checkpoint.
void write_archive(const std::string& path, const core::BrnnConfig& config,
                   std::uint64_t seed,
                   const std::vector<tensor::Tensor>& calibration);

// Loads an archive the way the product does: build the architecture, then
// nn::load_checkpoint, eval mode, the given backend. Exits on failure.
std::unique_ptr<core::BrnnModel> load_model(const std::string& path,
                                            const core::BrnnConfig& config,
                                            core::Backend backend);

// Float-sim labels of the archive's model: the reference every verdict is
// checked against.
std::vector<int> reference_labels(const std::string& archive,
                                  const core::BrnnConfig& config,
                                  const std::vector<tensor::Tensor>& rasters);

// "N reference verdicts, P% hotspots", for the run's notes.
std::string hotspot_share(const std::vector<int>& labels);

// Counts the mismatches of `labels` against `expected` into `report`.
void check_labels(const std::vector<int>& labels,
                  const std::vector<int>& expected, Report& report);

// A directory <out_dir>/tmp-<workload>-<pid> that is removed with this
// object, for the run's model archives.
class TempDir {
 public:
  explicit TempDir(const Options& options);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- Set-up ------------------------------------------------------------

// One timed set-up: archive load, Server::start plus client connects
// (serve only), and the first verdict, each in wall time, and the process
// CPU time of all three.
struct SetupTiming {
  double load_s = 0.0;
  double start_s = 0.0;
  double warmup_s = 0.0;
  double cpu_s = 0.0;
  double total() const { return load_s + start_s + warmup_s; }
};

// Medians over the set-ups of a run: setup_s from the CPU time, nn.load_ms
// and core.warmup_ms (and serve.start_ms when `serve`) from the wall
// times.
void report_setup(const std::vector<SetupTiming>& setups, bool serve,
                  Report& report);

// Set-up repetitions per run: enough that the median ignores a cold first
// and a noisy neighbour.
int setup_repetitions(const Options& options);

// Times `setup_repetitions` rounds of loading `archive` on the packed
// backend and classifying one clip; returns the last model loaded.
std::unique_ptr<core::BrnnModel> timed_setup(const Options& options,
                                             const std::string& archive,
                                             const core::BrnnConfig& config,
                                             const tensor::Tensor& first_clip,
                                             Report& report);

// --- Measurement loops ---------------------------------------------------

// Runs `body` until `budget_s` has passed and it ran at least `min_runs`
// times.
void repeat_for(double budget_s, int min_runs, const std::function<void()>& body);

// --- Tracing and per-layer replays ---------------------------------------

std::int64_t steady_now_ns();

// Turns on the program's spans and the timeline with empty buffers.
void begin_trace();

// Collects, turns tracing off, writes <out_dir>/<workload>.trace.json with
// `extra_events` and the server's `requests` joined in, and notes the span
// table (self time = span minus child spans).
void end_trace(const Options& options, Report& report,
               const std::vector<obs::TimelineEvent>& extra_events = {},
               const std::vector<obs::RequestTrace>& requests = {});

// Accumulates the benchmark-timed predict calls of a traced window.
struct PredictTally {
  double seconds = 0.0;
  std::int64_t clips = 0;
  std::int64_t calls = 0;
};

// core.predict_ms_per_clip, core.batch_clips_mean and the core.layer.*
// rows: the roofline of `model` over `spans`, closed against `tally`, the
// benchmark-timed predict calls over the same window.
void report_core_layers(const core::BrnnModel& model,
                        const obs::SpanReport& spans,
                        const PredictTally& tally, Report& report);

// For paths where the program owns its model (serve): times `model` over
// the rasters in batches of `batch` under tracing and reports the core rows
// from the spans of those calls alone.
void replay_core(core::BrnnModel& model,
                 const std::vector<tensor::Tensor>& rasters,
                 std::int64_t batch, Report& report);

// Float-sim vs packed over up to 64 of the rasters in one batch, alternated
// three times: core.float_sim_clips_per_s and core.packed_over_float (the
// Fig. 1 ratio).
void report_packed_over_float(const std::string& archive,
                              const core::BrnnConfig& config,
                              const std::vector<tensor::Tensor>& rasters,
                              Report& report);

// The scan, bitops and protocol replays every traced workload runs on its
// own chip and rasters: window stream, rasterization and dedup passes
// (scan.*_us_per_window, layout.raster_us_per_window, hit rate,
// evictions), the ScanStats rows of `scans` (one scan of `chip` with
// `model` when `scans` is empty) with their closure against the replays,
// the bitops kernels at fixed layer shapes, and the serve protocol.
void replay_layers(const Options& options, const layout::Pattern& chip,
                   const scan::ScanConfig& config, core::BrnnModel& model,
                   const std::vector<tensor::Tensor>& rasters,
                   std::vector<scan::ScanStats> scans, Report& report);

// obs.trace_overhead_pct: the extra CPU per clip of the traced loop over
// the untraced one.
void report_trace_overhead(double untraced_cpu_us, double traced_cpu_us,
                           Report& report);

// --- Serve (workload_serve.cpp) ------------------------------------------

// What a serve session needs: a compact-model archive, 32 px clips of a
// chip and their float-sim verdicts.
struct ServeInputs {
  std::string archive;
  std::vector<tensor::Tensor> rasters;
  std::vector<int> reference;
};

// Up to 256 clip-stride windows of `chip` at 32 px and a compact-model
// archive in `dir` calibrated on them.
ServeInputs make_serve_inputs(const Options& options,
                              const layout::Pattern& chip,
                              const std::string& dir);

// The serve_open phases at a short budget against a server loaded with
// `inputs`, for the serve.* rows of a workload that does not serve.
void replay_serve(const Options& options, const ServeInputs& inputs,
                  Report& report);

// --- Workloads -----------------------------------------------------------

// Each fills `report` for options.trace's mode.
void run_scan_tiled(const Options& options, Report& report);
void run_scan_unique(const Options& options, Report& report);
void run_serve_open(const Options& options, Report& report);
void run_paper_direct(const Options& options, Report& report);

// Formats like printf into a std::string.
std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace hotspot::e2e
