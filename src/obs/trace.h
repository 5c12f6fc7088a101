// RAII wall-time trace spans (DESIGN.md §10).
//
// A TraceSpan times the scope it lives in and records (count, total wall
// time, self time = total minus nested spans) into a per-thread buffer keyed
// by span name. collect_span_report() merges every thread's buffer into one
// aggregated report — aggregate span cost and memory are O(distinct names),
// not O(events).
//
// On top of the aggregates, *timeline mode* additionally records one
// TimelineEvent (begin/end timestamps + thread index) per closed span into a
// bounded per-thread ring buffer. When a ring fills up the oldest events are
// overwritten and a drop counter increments, so a long run keeps the most
// recent window of activity at fixed memory. collect_timeline() merges the
// rings into one start-ordered report; export.h renders it as Chrome
// trace-event JSON (chrome://tracing / Perfetto).
//
// Tracing is compiled in but off by default: when disabled, constructing a
// span reads one relaxed atomic and does nothing else — no clock read, no
// allocation (pinned by tests/obs/timeline_test.cpp) — so instrumented hot
// paths (per-layer forward, packing, GEMM) stay effectively free until an
// exporter flips set_trace_enabled(true). Timeline mode only records while
// tracing itself is enabled. Spans never touch model state, RNG, or
// arithmetic, so deterministic results are unaffected either way (pinned by
// parallel_determinism_test).
//
// Usage:
//   void forward() {
//     HOTSPOT_TRACE_SPAN("brnn.forward");   // whole function
//     {
//       HOTSPOT_TRACE_SPAN("binary_conv.pack");  // nested phase
//       pack();
//     }
//   }
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hotspot::obs {

// Global switch; safe to flip from any thread. Spans already open keep the
// enablement they saw at construction.
void set_trace_enabled(bool enabled);
bool trace_enabled();

// Timeline mode: record per-event begin/end timestamps in addition to the
// aggregates. Only takes effect while tracing is enabled. Enabling captures
// the timestamp epoch all events are reported relative to.
void set_timeline_enabled(bool enabled);

// Per-thread event ring capacity (default 65536 events/thread). Applies to
// rings allocated after the call; call reset_timeline() afterwards to force
// existing threads to re-allocate at the new capacity. Clamped to >= 1.
void set_timeline_capacity(std::size_t events_per_thread);

struct TimelineEvent {
  std::string name;
  std::uint64_t start_ns = 0;     // since the set_timeline_enabled epoch
  std::uint64_t duration_ns = 0;
  std::uint32_t thread_index = 0;  // stable small id, one per thread buffer
};

struct TimelineReport {
  std::vector<TimelineEvent> events;  // ordered by start_ns
  std::uint64_t dropped = 0;  // events overwritten across all ring buffers
  std::size_t thread_count = 0;
};

// Merges every thread's ring (oldest surviving event first per thread) into
// one start-ordered report. Open spans are not included.
TimelineReport collect_timeline();

// Clears all recorded events and drop counters. Rings re-allocate lazily at
// the capacity last set by set_timeline_capacity() on the next recorded
// event.
void reset_timeline();

// Ring occupancy without copying events: how many events are currently
// buffered across all threads, how many were overwritten, and how many
// thread rings exist. O(threads), not O(events).
struct TimelineStats {
  std::uint64_t buffered = 0;  // events a collect_timeline() would return
  std::uint64_t dropped = 0;   // events overwritten across all rings
  std::size_t threads = 0;     // thread buffers ever created
};

TimelineStats timeline_stats();

// Publishes timeline_stats() as obs.timeline.events / obs.timeline.dropped /
// obs.timeline.threads gauges in the global metrics registry, so trace
// truncation is visible in every scrape — not just in the export footer.
void publish_timeline_metrics();

struct SpanStat {
  std::uint64_t count = 0;
  double total_seconds = 0.0;  // inclusive of nested spans
  double self_seconds = 0.0;   // exclusive: total minus direct children
};

struct SpanReport {
  std::vector<std::pair<std::string, SpanStat>> spans;  // sorted by name

  const SpanStat* find(const std::string& name) const;
  // Sum of self times = total traced wall time without double counting.
  double total_self_seconds() const;
};

// Merges every thread's span buffer (open spans are not included).
SpanReport collect_span_report();

// Clears all recorded spans on every thread; open spans still record when
// they close.
void reset_spans();

class TraceSpan {
 public:
  // The name is copied when the span opens; any lifetime works.
  explicit TraceSpan(const char* name);
  explicit TraceSpan(const std::string& name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void open(const char* name);
  bool active_ = false;
};

}  // namespace hotspot::obs

#define HOTSPOT_TRACE_CONCAT_INNER(a, b) a##b
#define HOTSPOT_TRACE_CONCAT(a, b) HOTSPOT_TRACE_CONCAT_INNER(a, b)
// Times the enclosing scope under `name` (string literal or std::string).
#define HOTSPOT_TRACE_SPAN(name)                                     \
  ::hotspot::obs::TraceSpan HOTSPOT_TRACE_CONCAT(hotspot_trace_span_, \
                                                 __LINE__)(name)
