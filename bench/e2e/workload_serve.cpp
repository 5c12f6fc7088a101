// serve_open: an open loop against an in-process serve::Server with the
// hotspot_serve defaults. One generator thread drives up to four
// ServeClient connections; arrivals are Poisson and requests carry 1/4/16
// clips at 70/20/10%. Phases, in order:
//   low    - 200 clips/s offered;
//   high   - 400 clips/s offered;
//   probe  - closed-loop capacity, 4 connections back to back;
//   ladder - bisection over the rate grid 400 * 1.05^k clips/s up to 1.2x
//            the probe's capacity, for the highest rate whose tail latency
//            stays within 50 ms with no failed request (goodput). Traced
//            runs only: it feeds no end-to-end metric.
// Small requests make protocol, admission queue and batch formation set
// the latency at low load; high load exposes batching and inference under
// queueing. Every request is timed from its due time, so waiting for a free
// connection counts. With at most four requests in flight the admission
// queue (512 clips) cannot fill, so a rate above capacity shows as latency
// and generator lateness, never as shed requests.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <optional>

#include "common.h"
#include "harness.h"
#include "obs/metrics.h"
#include "scan/window_stream.h"
#include "serve/client.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "util/stopwatch.h"

namespace hotspot::e2e {
namespace {

constexpr int kConnections = 4;
constexpr double kLowRate = 200.0;
constexpr double kHighRate = 400.0;
constexpr double kLadderBase = 400.0;
constexpr double kLadderStep = 1.05;
constexpr double kLadderLimitS = 0.050;
// Variants pre-stacked per request size of the mix; request i uses variant
// i % this.
constexpr std::size_t kVariants = 64;
// The largest request the server accepts, which it classifies as one batch
// of its largest size.
const int kLargestRequest =
    static_cast<int>(serve::ServerConfig().max_clips_per_request);
const char* const kTenant = "e2e";

// Request tensors and their float-sim verdicts, built before any phase so
// input generation stays out of every timing.
class RequestPool {
 public:
  struct Entry {
    tensor::Tensor images;
    std::vector<int> expected;
  };

  explicit RequestPool(const ServeInputs& inputs) {
    std::size_t cursor = 0;
    for (const int clips : {1, 4, 16, kLargestRequest}) {
      const std::size_t variants = clips == kLargestRequest ? 1 : kVariants;
      for (std::size_t v = 0; v < variants; ++v) {
        Entry entry;
        entry.images =
            stack(inputs.rasters, cursor, static_cast<std::size_t>(clips));
        for (int j = 0; j < clips; ++j) {
          entry.expected.push_back(
              inputs.reference[(cursor + static_cast<std::size_t>(j)) %
                               inputs.rasters.size()]);
        }
        cursor += static_cast<std::size_t>(clips);
        entries_[clips].push_back(std::move(entry));
      }
    }
  }

  const Entry& get(int clips, std::size_t index) const {
    const std::vector<Entry>& entries = entries_.at(clips);
    return entries[index % entries.size()];
  }

 private:
  std::map<int, std::vector<Entry>> entries_;
};

// A client-side request record for the Chrome trace.
struct ClientEvent {
  std::int64_t start_ns = 0;  // steady clock
  std::int64_t duration_ns = 0;
  std::uint64_t trace_id = 0;
  int connection = 0;
};

// Everything one phase measured.
struct PhaseResult {
  std::vector<double> latency_s;  // successful requests, from due time
  std::vector<double> late_s;
  std::vector<double> wire_s;     // client round trip minus server total
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::int64_t clips = 0;
  double elapsed_s = 0.0;
  obs::MetricsSnapshot metrics;  // registry delta over the phase
};

// An in-process server with hotspot_serve's defaults, serving one archive,
// and kConnections connected clients.
class ServeSession {
 public:
  // Loads the registry, starts the server, connects the clients and checks
  // a first verdict, timing each step into `timing`. Exits on failure.
  ServeSession(const ServeInputs& inputs, const RequestPool& pool,
               SetupTiming* timing)
      : pool_(pool) {
    const double cpu_start = cpu_seconds();
    util::Stopwatch load_timer;
    const nn::LoadResult loaded =
        registry_.load(inputs.archive, kCompactGrid);
    timing->load_s = load_timer.seconds();
    if (!loaded.ok()) {
      die("registry load: " + loaded.message);
    }
    util::Stopwatch start_timer;
    server_ = std::make_unique<serve::Server>(serve::ServerConfig(),
                                              &registry_);
    std::string error;
    if (!server_->start(&error)) {
      die("server start: " + error);
    }
    for (int c = 0; c < kConnections; ++c) {
      clients_.push_back(std::make_unique<serve::ServeClient>());
      if (!clients_.back()->connect("127.0.0.1", server_->bound_port(),
                                    &error)) {
        die("connect: " + error);
      }
    }
    timing->start_s = start_timer.seconds();
    util::Stopwatch warmup_timer;
    double round_trip = 0.0;
    const bool ok = send(0, 1, 0, &round_trip);
    timing->warmup_s = warmup_timer.seconds();
    timing->cpu_s = cpu_seconds() - cpu_start;
    if (!ok) {
      die("first verdict failed");
    }
  }

  ~ServeSession() {
    for (auto& client : clients_) {
      client->close();
    }
    server_->stop();
  }

  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  serve::Server& server() { return *server_; }

  // Round trip of one request; false when it failed in any way.
  bool send(int connection, int clips, std::size_t variant,
            double* round_trip_s) {
    const RequestPool::Entry& entry = pool_.get(clips, variant);
    serve::ServeClient& client =
        *clients_[static_cast<std::size_t>(connection)];
    serve::PredictOutcome outcome;
    std::string error;
    const std::int64_t start = steady_now_ns();
    const bool sent = client.predict(kTenant, entry.images, &outcome, &error);
    const std::int64_t end = steady_now_ns();
    *round_trip_s = static_cast<double>(end - start) * 1e-9;
    if (record_events_) {
      std::lock_guard<std::mutex> lock(events_mutex_);
      events_.push_back(
          {start, end - start, client.last_trace_id(), connection});
    }
    if (!sent) {
      ++failures_.transport;
      std::fprintf(stderr, "bench_e2e: transport error: %s\n", error.c_str());
      return false;
    }
    if (!outcome.ok) {
      ++(outcome.reason == serve::RejectReason::kQueueFull ? failures_.shed
                                                            : failures_.rejects);
      std::fprintf(stderr, "bench_e2e: rejected: %s (%s)\n",
                   serve::reject_reason_name(outcome.reason),
                   outcome.detail.c_str());
      return false;
    }
    if (outcome.labels != entry.expected) {
      ++failures_.mismatches;
      return false;
    }
    return true;
  }

  PhaseResult open_phase(const char* name, const std::vector<Arrival>& plan) {
    HOTSPOT_TRACE_SPAN(std::string("e2e.serve.") + name);
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::global().snapshot();
    std::vector<double> round_trip(plan.size(), 0.0);
    std::vector<std::uint64_t> trace_ids(plan.size(), 0);
    const OpenLoopResult run = run_open_loop(
        plan, kConnections, [&](int connection, std::size_t index) {
          const bool ok =
              send(connection, plan[index].clips, index, &round_trip[index]);
          trace_ids[index] =
              clients_[static_cast<std::size_t>(connection)]->last_trace_id();
          return ok;
        });
    PhaseResult result;
    result.metrics =
        obs::MetricsRegistry::global().snapshot().delta_since(before);
    result.attempted = plan.size();
    result.failed = run.failed;
    result.elapsed_s = run.elapsed_s;
    result.late_s = run.late_s;
    std::map<std::uint64_t, double> server_total;
    for (const obs::RequestTrace& trace :
         server_->flight_recorder().snapshot()) {
      server_total[trace.request_id] = trace.total_seconds;
    }
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (!run.ok[i]) {
        continue;
      }
      result.latency_s.push_back(run.latency_s[i]);
      result.clips += plan[i].clips;
      const auto it = server_total.find(trace_ids[i]);
      if (it != server_total.end()) {
        result.wire_s.push_back(round_trip[i] - it->second);
      }
    }
    return result;
  }

  PhaseResult closed_phase(double seconds, const std::vector<Arrival>& sizes) {
    HOTSPOT_TRACE_SPAN("e2e.serve.probe");
    const ClosedLoopResult run = run_closed_loop(
        kConnections, seconds, [&](int connection, std::size_t index) {
          double round_trip = 0.0;
          return send(connection, sizes[index % sizes.size()].clips, index,
                      &round_trip);
        });
    PhaseResult result;
    result.attempted = run.completed + run.failed;
    result.failed = run.failed;
    result.elapsed_s = run.elapsed_s;
    for (const std::size_t index : run.completed_indices) {
      result.clips += sizes[index % sizes.size()].clips;
    }
    return result;
  }

  std::string failure_note() const {
    return format("serve failures: %lld shed, %lld rejected, %lld "
                  "transport, %lld label mismatches",
                  static_cast<long long>(failures_.shed.load()),
                  static_cast<long long>(failures_.rejects.load()),
                  static_cast<long long>(failures_.transport.load()),
                  static_cast<long long>(failures_.mismatches.load()));
  }

  void set_record_events(bool record) { record_events_ = record; }
  std::vector<ClientEvent> take_events() {
    std::lock_guard<std::mutex> lock(events_mutex_);
    return std::move(events_);
  }

 private:
  [[noreturn]] static void die(const std::string& what) {
    std::fprintf(stderr, "bench_e2e: %s\n", what.c_str());
    std::exit(1);
  }

  // Failed requests by kind, since construction.
  struct Failures {
    std::atomic<std::int64_t> shed{0};
    std::atomic<std::int64_t> rejects{0};
    std::atomic<std::int64_t> transport{0};
    std::atomic<std::int64_t> mismatches{0};
  };

  const RequestPool& pool_;
  serve::ModelRegistry registry_;
  std::unique_ptr<serve::Server> server_;
  std::vector<std::unique_ptr<serve::ServeClient>> clients_;
  std::atomic<bool> record_events_{false};
  Failures failures_;
  std::mutex events_mutex_;
  std::vector<ClientEvent> events_;
};

double ms(double seconds) { return seconds * 1e3; }

// Median, or 0 for an empty sample (every request failed).
double median_or_zero(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : median(samples);
}

// The tail a sample supports, or its maximum when it is too small for any
// percentile to leave ten samples beyond; 0 when every request failed.
double tail_or_max(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  const std::optional<Tail> tail = tail_percentile(samples);
  return tail.has_value()
             ? tail->value
             : *std::max_element(samples.begin(), samples.end());
}

std::string tail_text(const std::vector<double>& samples) {
  const std::optional<Tail> tail = tail_percentile(samples);
  if (!tail.has_value()) {
    return format("tail n/a (%zu samples)", samples.size());
  }
  return format("p%d %.3f ms (%zu samples)", tail->percentile,
                ms(tail->value), tail->samples);
}

double histogram_quantile_ms(const PhaseResult& phase, const std::string& name,
                             double q) {
  const obs::HistogramSample* sample = phase.metrics.find_histogram(name);
  return sample != nullptr && sample->count > 0 ? ms(sample->quantile(q))
                                                : 0.0;
}

double batch_clips_mean(const PhaseResult& phase) {
  const obs::HistogramSample* batches =
      phase.metrics.find_histogram("serve.batch_clips");
  return batches != nullptr && batches->count > 0
             ? batches->sum / static_cast<double>(batches->count)
             : 0.0;
}

// The serve.<name>.* rows of an open phase and its notes: client latency,
// the server's per-stage histograms, wire time and generator lateness.
void report_phase(Report& report, const char* name, double rate,
                  const PhaseResult& phase) {
  const std::string prefix = format("serve.%s.", name);
  report.set(prefix + "p50_ms", ms(median_or_zero(phase.latency_s)));
  report.set(prefix + "tail_ms", ms(tail_or_max(phase.latency_s)));
  report.set(prefix + "gen_late_ms_tail", ms(tail_or_max(phase.late_s)));
  report.set(prefix + "wire_ms_p50", ms(median_or_zero(phase.wire_s)));
  report.set(prefix + "batch_clips_mean", batch_clips_mean(phase));
  std::string stages = "  stages p50 ms:";
  for (const char* stage : {"decode", "queue", "batch", "infer", "encode"}) {
    const double p50 = histogram_quantile_ms(
        phase, format("serve.request.%s_seconds", stage), 0.5);
    report.set(prefix + stage + "_ms_p50", p50);
    stages += format(" %s %.3f", stage, p50);
  }
  stages += "; p99 ms:";
  for (const char* stage : {"queue", "infer"}) {
    const double p99 = histogram_quantile_ms(
        phase, format("serve.request.%s_seconds", stage), 0.99);
    report.set(prefix + stage + "_ms_p99", p99);
    stages += format(" %s %.3f", stage, p99);
  }
  report.note(format(
      "serve %s @ %.0f clips/s: %zu requests, %zu failed, p50 %.3f ms, %s; "
      "generator late %s",
      name, rate, phase.attempted, phase.failed,
      ms(median_or_zero(phase.latency_s)), tail_text(phase.latency_s).c_str(),
      tail_text(phase.late_s).c_str()));
  report.note(stages + format("; wire p50 %.3f ms; batch %.2f clips mean",
                              ms(median_or_zero(phase.wire_s)),
                              batch_clips_mean(phase)));
}

std::size_t request_count(double seconds, double clips_per_s) {
  return std::max<std::size_t>(
      20, static_cast<std::size_t>(
              std::lround(seconds * clips_per_s / kMeanRequestClips)));
}

// Seconds given to each phase; no ladder when ladder_s is 0.
struct PhasePlan {
  double low_s = 0.0;
  double high_s = 0.0;
  double probe_s = 0.0;
  double ladder_s = 0.0;
};

// Closed-loop capacity: wall throughput, and the process CPU time per clip
// (client threads included).
struct Capacity {
  double clips_per_s = 0.0;
  double cpu_us_per_clip = 0.0;
};

struct PhaseSummary {
  Capacity probe;
  double high_batch_clips_mean = 0.0;
};

// Capacity as the median over half-second closed-loop windows, so a burst
// of host contention moves one window instead of the whole probe.
Capacity probe_capacity(ServeSession& session, std::uint64_t seed,
                        double seconds, Report& report) {
  const std::vector<Arrival> sizes = poisson_schedule(seed, 1.0, 1024);
  const int windows = std::max(3, static_cast<int>(seconds / 0.5));
  std::vector<double> rates;
  std::vector<double> cpu_us;
  for (int w = 0; w < windows; ++w) {
    const double cpu_start = cpu_seconds();
    const PhaseResult probe = session.closed_phase(seconds / windows, sizes);
    const double cpu_s = cpu_seconds() - cpu_start;
    report.attempted += static_cast<std::int64_t>(probe.attempted);
    report.failed += static_cast<std::int64_t>(probe.failed);
    if (probe.clips > 0) {
      cpu_us.push_back(cpu_s * 1e6 / static_cast<double>(probe.clips));
      rates.push_back(static_cast<double>(probe.clips) / probe.elapsed_s);
    }
  }
  const Capacity capacity{median_or_zero(rates), median_or_zero(cpu_us)};
  report.note(format("serve probe (closed loop, %d connections): median of "
                     "%d windows %.1f clips/s, %.1f us CPU per clip",
                     kConnections, windows, capacity.clips_per_s,
                     capacity.cpu_us_per_clip));
  return capacity;
}

// The highest rate of the grid kLadderBase * kLadderStep^k, up to 1.2x
// `capacity`, whose tail stays within kLadderLimitS with nothing failed; 0
// when even the base rate misses.
double goodput(ServeSession& session, std::uint64_t seed, double capacity,
               double seconds, Report& report) {
  const double ceiling = 1.2 * capacity;
  const int k_max =
      ceiling < kLadderBase
          ? -1
          : static_cast<int>(std::floor(std::log(ceiling / kLadderBase) /
                                        std::log(kLadderStep)));
  const int rungs = static_cast<int>(
      std::ceil(std::log2(static_cast<double>(std::max(k_max, 0) + 2))));
  const int best = bisect_highest(k_max, [&](int k) {
    const double rate = kLadderBase * std::pow(kLadderStep, k);
    const PhaseResult step = session.open_phase(
        "ladder", poisson_schedule(seed + static_cast<std::uint64_t>(k), rate,
                                   request_count(seconds / rungs, rate)));
    report.attempted += static_cast<std::int64_t>(step.attempted);
    report.failed += static_cast<std::int64_t>(step.failed);
    const bool ok = step.failed == 0 && tail_or_max(step.latency_s) <=
                                            kLadderLimitS;
    report.note(format("  ladder k=%d %.0f clips/s: %s -> %s", k, rate,
                       tail_text(step.latency_s).c_str(),
                       ok ? "within 50 ms" : "over"));
    return ok;
  });
  const double rate = best < 0 ? 0.0 : kLadderBase * std::pow(kLadderStep, best);
  report.note(format("serve goodput: %.0f clips/s (grid 400*1.05^k up to "
                     "%.0f clips/s; 0 = below the grid)",
                     rate, ceiling));
  return rate;
}

// Runs the phases of `plan`, counting every request into `report` and
// setting the serve.* rows.
PhaseSummary run_phases(ServeSession& session, const Options& options,
                        const PhasePlan& plan, Report& report) {
  const std::uint64_t seed = options.seed * 1000;
  // One largest request first, so that the peak memory of every run covers
  // the server's largest batch and not whichever batch sizes arrival
  // timing happened to fuse.
  double round_trip = 0.0;
  ++report.attempted;
  report.failed += session.send(0, kLargestRequest, 0, &round_trip) ? 0 : 1;
  auto open_phase = [&](const char* name, std::uint64_t phase_seed,
                        double rate, double seconds) {
    const PhaseResult phase = session.open_phase(
        name, poisson_schedule(phase_seed, rate, request_count(seconds, rate)));
    report.attempted += static_cast<std::int64_t>(phase.attempted);
    report.failed += static_cast<std::int64_t>(phase.failed);
    report_phase(report, name, rate, phase);
    return phase;
  };
  open_phase("low", seed + 1, kLowRate, plan.low_s);
  PhaseSummary summary;
  summary.high_batch_clips_mean =
      batch_clips_mean(open_phase("high", seed + 2, kHighRate, plan.high_s));
  summary.probe = probe_capacity(session, seed + 3, plan.probe_s, report);
  report.set("serve.closed_loop_clips_per_s", summary.probe.clips_per_s);
  if (plan.ladder_s > 0.0) {
    report.set("serve.goodput_clips_per_s",
               goodput(session, seed + 100, summary.probe.clips_per_s,
                       plan.ladder_s, report));
  }
  report.note(session.failure_note());
  return summary;
}

std::unique_ptr<ServeSession> timed_serve_setup(const Options& options,
                                                const ServeInputs& inputs,
                                                const RequestPool& pool,
                                                Report& report) {
  std::unique_ptr<ServeSession> session;
  std::vector<SetupTiming> setups;
  for (int r = 0; r < setup_repetitions(options); ++r) {
    session.reset();
    SetupTiming setup;
    session = std::make_unique<ServeSession>(inputs, pool, &setup);
    setups.push_back(setup);
  }
  report_setup(setups, true, report);
  return session;
}

}  // namespace

ServeInputs make_serve_inputs(const Options& options,
                              const layout::Pattern& chip,
                              const std::string& dir) {
  const dataset::PatternParams params;
  const scan::ClipWindowStream stream(chip, params.clip_nm, params.clip_nm);
  ServeInputs inputs;
  inputs.rasters = window_rasters(
      chip, params.clip_nm, params.clip_nm, kCompactGrid,
      sample_indices(options.seed,
                     static_cast<std::size_t>(stream.window_count()), 256));
  inputs.archive = dir + "/serve_model.bin";
  const core::BrnnConfig config = core::BrnnConfig::compact(kCompactGrid);
  write_archive(inputs.archive, config, options.seed, inputs.rasters);
  inputs.reference = reference_labels(inputs.archive, config, inputs.rasters);
  return inputs;
}

void replay_serve(const Options& options, const ServeInputs& inputs,
                  Report& report) {
  HOTSPOT_TRACE_SPAN("e2e.replay.serve");
  const RequestPool pool(inputs);
  SetupTiming setup;
  ServeSession session(inputs, pool, &setup);
  report.set("serve.start_ms", ms(setup.start_s));
  const double scale = options.smoke ? 0.1 : 1.0;
  run_phases(session, options,
             PhasePlan{1.0 * scale, 0.5 * scale, 0.5 * scale, 1.0 * scale},
             report);
}

void run_serve_open(const Options& options, Report& report) {
  const dataset::PatternParams params;
  const std::int64_t side = options.smoke ? 4 : 16;
  const auto clips = static_cast<std::size_t>(side * side);
  const layout::Pattern chip = build_chip(
      make_tiles(options.seed, clips, params), {}, side, params);
  const TempDir dir(options);
  const ServeInputs inputs = make_serve_inputs(options, chip, dir.path());
  const RequestPool pool(inputs);
  report.note(format("serve_open: %zu distinct clips at %lld px, %d "
                     "connections, seed %llu, pool %d threads; %s",
                     inputs.rasters.size(), static_cast<long long>(kCompactGrid),
                     kConnections, static_cast<unsigned long long>(options.seed),
                     kPoolThreads, hotspot_share(inputs.reference).c_str()));

  reset_peak_rss();
  const std::unique_ptr<ServeSession> session =
      timed_serve_setup(options, inputs, pool, report);
  const double s = options.seconds;
  if (!options.trace) {
    const PhaseSummary summary = run_phases(
        *session, options, PhasePlan{0.25 * s, 0.15 * s, 0.6 * s, 0.0},
        report);
    report.set("cpu_us_per_clip", summary.probe.cpu_us_per_clip);
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("wall.clips_per_s", summary.probe.clips_per_s);
    return;
  }

  const Capacity untraced =
      probe_capacity(*session, options.seed * 1000 + 3, 0.2 * s, report);
  report.set("wall.clips_per_s", untraced.clips_per_s);
  begin_trace();
  // Both clocks are read at the timeline epoch so the flight recorder's
  // request lanes and the client spans line up with the program's spans.
  const std::int64_t epoch_ns = steady_now_ns();
  const std::uint64_t recorder_epoch_ns =
      session->server().flight_recorder().relative_now_ns();
  session->set_record_events(true);
  const PhaseSummary traced = run_phases(
      *session, options, PhasePlan{0.25 * s, 0.15 * s, 0.2 * s, 0.2 * s},
      report);
  session->set_record_events(false);
  std::vector<obs::RequestTrace> requests =
      session->server().flight_recorder().snapshot();

  const core::BrnnConfig config = core::BrnnConfig::compact(kCompactGrid);
  std::unique_ptr<core::BrnnModel> served =
      load_model(inputs.archive, config, core::Backend::kPacked);
  replay_core(*served, inputs.rasters,
              std::max<std::int64_t>(
                  1, std::llround(traced.high_batch_clips_mean)),
              report);
  scan::ScanConfig scan_config;
  scan_config.window_nm = params.clip_nm;
  scan_config.grid = kCompactGrid;
  replay_layers(options, chip, scan_config, *served, inputs.rasters, {},
                report);

  // Client spans carry the trace id the server echoed, the same id its
  // request lane is keyed on.
  std::vector<obs::TimelineEvent> client_events;
  for (const ClientEvent& event : session->take_events()) {
    if (event.start_ns < epoch_ns) {
      continue;
    }
    client_events.push_back(obs::TimelineEvent{
        format("e2e.serve.predict id=%llu",
               static_cast<unsigned long long>(event.trace_id)),
        static_cast<std::uint64_t>(event.start_ns - epoch_ns),
        static_cast<std::uint64_t>(event.duration_ns),
        static_cast<std::uint32_t>(1000 + event.connection)});
  }
  std::vector<obs::RequestTrace> aligned;
  for (obs::RequestTrace& trace : requests) {
    if (trace.start_ns >= recorder_epoch_ns) {
      trace.start_ns -= recorder_epoch_ns;
      aligned.push_back(trace);
    }
  }
  end_trace(options, report, client_events, aligned);
  report_packed_over_float(inputs.archive, config, inputs.rasters, report);
  report_trace_overhead(untraced.cpu_us_per_clip,
                        traced.probe.cpu_us_per_clip, report);
}

}  // namespace hotspot::e2e
