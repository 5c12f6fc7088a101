#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>

#include "obs/metrics.h"

namespace hotspot::obs {
namespace {

using Clock = std::chrono::steady_clock;

std::atomic<bool> g_trace_enabled{false};
std::atomic<bool> g_timeline_enabled{false};
// steady_clock nanoseconds captured when timeline mode was last enabled;
// every event's start_ns is relative to this.
std::atomic<std::int64_t> g_timeline_epoch_ns{0};
std::atomic<std::size_t> g_timeline_capacity{std::size_t{1} << 16};

struct ActiveSpan {
  std::string name;
  Clock::time_point start;
  double child_seconds = 0.0;
};

// One buffer per thread. The open-span stack is touched only by the owning
// thread; the aggregated stats map and event ring are shared with the
// collect/reset functions and guarded by the buffer mutex (locked only when
// a span closes, never on the disabled path).
struct ThreadBuffer {
  std::mutex mutex;
  std::map<std::string, SpanStat> stats;
  std::vector<ActiveSpan> stack;
  // Timeline ring, allocated lazily on the first recorded event so threads
  // that never trace in timeline mode pay nothing. Slot of event k is
  // k % ring_capacity; once ring_total exceeds the capacity the oldest
  // events are overwritten (ring_total - ring.size() = dropped).
  std::vector<TimelineEvent> ring;
  std::size_t ring_capacity = 0;
  std::uint64_t ring_total = 0;
  std::uint32_t thread_index = 0;
};

struct BufferDirectory {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

BufferDirectory& directory() {
  // Leaked: pool workers may close spans during static destruction.
  static BufferDirectory* dir = new BufferDirectory();
  return *dir;
}

ThreadBuffer& local_buffer() {
  // The directory keeps a shared_ptr too, so a thread's recorded spans
  // survive the thread itself.
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto fresh = std::make_shared<ThreadBuffer>();
    BufferDirectory& dir = directory();
    std::lock_guard<std::mutex> lock(dir.mutex);
    fresh->thread_index = static_cast<std::uint32_t>(dir.buffers.size());
    dir.buffers.push_back(fresh);
    return fresh;
  }();
  return *buffer;
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Caller holds buffer.mutex.
void record_timeline_event(ThreadBuffer& buffer, std::string name,
                           Clock::time_point start, Clock::time_point end) {
  if (buffer.ring_capacity == 0) {
    buffer.ring_capacity =
        std::max<std::size_t>(1, g_timeline_capacity.load(
                                     std::memory_order_relaxed));
    buffer.ring.reserve(buffer.ring_capacity);
  }
  const std::int64_t epoch =
      g_timeline_epoch_ns.load(std::memory_order_relaxed);
  const std::int64_t start_raw =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          start.time_since_epoch())
          .count();
  TimelineEvent event;
  event.name = std::move(name);
  // Spans opened before the epoch (enable raced an open span) clamp to 0.
  event.start_ns =
      start_raw > epoch ? static_cast<std::uint64_t>(start_raw - epoch) : 0;
  event.duration_ns = static_cast<std::uint64_t>(
      std::max<std::int64_t>(
          0, std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                 .count()));
  event.thread_index = buffer.thread_index;
  if (buffer.ring.size() < buffer.ring_capacity) {
    buffer.ring.push_back(std::move(event));
  } else {
    buffer.ring[buffer.ring_total % buffer.ring_capacity] = std::move(event);
  }
  ++buffer.ring_total;
}

}  // namespace

void set_trace_enabled(bool enabled) {
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

bool trace_enabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void set_timeline_enabled(bool enabled) {
  if (enabled) {
    g_timeline_epoch_ns.store(steady_now_ns(), std::memory_order_relaxed);
  }
  g_timeline_enabled.store(enabled, std::memory_order_relaxed);
}

void set_timeline_capacity(std::size_t events_per_thread) {
  g_timeline_capacity.store(std::max<std::size_t>(1, events_per_thread),
                            std::memory_order_relaxed);
}

TimelineReport collect_timeline() {
  TimelineReport report;
  BufferDirectory& dir = directory();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(dir.mutex);
    buffers = dir.buffers;
  }
  report.thread_count = buffers.size();
  for (const std::shared_ptr<ThreadBuffer>& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    const std::size_t size = buffer->ring.size();
    report.dropped += buffer->ring_total - size;
    if (size == 0) {
      continue;
    }
    // Oldest surviving event first: once the ring has wrapped, slot
    // ring_total % size holds the oldest entry.
    const std::size_t oldest =
        buffer->ring_total > size
            ? static_cast<std::size_t>(buffer->ring_total % size)
            : 0;
    for (std::size_t i = 0; i < size; ++i) {
      report.events.push_back(buffer->ring[(oldest + i) % size]);
    }
  }
  std::stable_sort(report.events.begin(), report.events.end(),
                   [](const TimelineEvent& a, const TimelineEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return report;
}

void reset_timeline() {
  BufferDirectory& dir = directory();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(dir.mutex);
    buffers = dir.buffers;
  }
  for (const std::shared_ptr<ThreadBuffer>& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    buffer->ring.clear();
    buffer->ring.shrink_to_fit();
    buffer->ring_capacity = 0;
    buffer->ring_total = 0;
  }
}

TimelineStats timeline_stats() {
  TimelineStats stats;
  BufferDirectory& dir = directory();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(dir.mutex);
    buffers = dir.buffers;
  }
  stats.threads = buffers.size();
  for (const std::shared_ptr<ThreadBuffer>& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    stats.buffered += buffer->ring.size();
    stats.dropped += buffer->ring_total - buffer->ring.size();
  }
  return stats;
}

void publish_timeline_metrics() {
  const TimelineStats stats = timeline_stats();
  static Gauge& events_gauge =
      MetricsRegistry::global().gauge("obs.timeline.events");
  static Gauge& dropped_gauge =
      MetricsRegistry::global().gauge("obs.timeline.dropped");
  static Gauge& threads_gauge =
      MetricsRegistry::global().gauge("obs.timeline.threads");
  events_gauge.set(static_cast<double>(stats.buffered));
  dropped_gauge.set(static_cast<double>(stats.dropped));
  threads_gauge.set(static_cast<double>(stats.threads));
}

const SpanStat* SpanReport::find(const std::string& name) const {
  for (const auto& [span_name, stat] : spans) {
    if (span_name == name) {
      return &stat;
    }
  }
  return nullptr;
}

double SpanReport::total_self_seconds() const {
  double total = 0.0;
  for (const auto& [name, stat] : spans) {
    total += stat.self_seconds;
  }
  return total;
}

SpanReport collect_span_report() {
  std::map<std::string, SpanStat> merged;
  BufferDirectory& dir = directory();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(dir.mutex);
    buffers = dir.buffers;
  }
  for (const std::shared_ptr<ThreadBuffer>& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    for (const auto& [name, stat] : buffer->stats) {
      SpanStat& into = merged[name];
      into.count += stat.count;
      into.total_seconds += stat.total_seconds;
      into.self_seconds += stat.self_seconds;
    }
  }
  SpanReport report;
  report.spans.assign(merged.begin(), merged.end());
  return report;
}

void reset_spans() {
  BufferDirectory& dir = directory();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(dir.mutex);
    buffers = dir.buffers;
  }
  for (const std::shared_ptr<ThreadBuffer>& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    buffer->stats.clear();
  }
}

TraceSpan::TraceSpan(const char* name) { open(name); }

TraceSpan::TraceSpan(const std::string& name) { open(name.c_str()); }

void TraceSpan::open(const char* name) {
  if (!g_trace_enabled.load(std::memory_order_relaxed)) {
    return;
  }
  ThreadBuffer& buffer = local_buffer();
  buffer.stack.push_back({name, Clock::now(), 0.0});
  active_ = true;
}

TraceSpan::~TraceSpan() {
  if (!active_) {
    return;
  }
  const Clock::time_point end = Clock::now();
  ThreadBuffer& buffer = local_buffer();
  ActiveSpan span = std::move(buffer.stack.back());
  buffer.stack.pop_back();
  const double elapsed =
      std::chrono::duration<double>(end - span.start).count();
  if (!buffer.stack.empty()) {
    buffer.stack.back().child_seconds += elapsed;
  }
  std::lock_guard<std::mutex> lock(buffer.mutex);
  SpanStat& stat = buffer.stats[span.name];
  stat.count += 1;
  stat.total_seconds += elapsed;
  stat.self_seconds += std::max(0.0, elapsed - span.child_seconds);
  if (g_timeline_enabled.load(std::memory_order_relaxed)) {
    record_timeline_event(buffer, std::move(span.name), span.start, end);
  }
}

}  // namespace hotspot::obs
