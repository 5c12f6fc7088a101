#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <thread>

#include "obs/export.h"
#include "obs/trace.h"
#include "support/test_support.h"
#include "util/json.h"

// Counts every global allocation so tests can pin the "disabled spans do
// not allocate" contract. Instrumented at the TU level: the replacement
// operators serve the whole test binary, the counter just tells us how many
// allocations happened between two reads.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace hotspot::obs {
namespace {

class TimelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_trace_enabled(true);
    set_timeline_enabled(true);
    reset_spans();
    reset_timeline();
  }
  void TearDown() override {
    set_timeline_enabled(false);
    set_trace_enabled(false);
    reset_timeline();
    reset_spans();
    set_timeline_capacity(65536);
  }
};

TEST_F(TimelineTest, RecordsEventsWithDurations) {
  {
    HOTSPOT_TRACE_SPAN("outer");
    HOTSPOT_TRACE_SPAN("inner");
  }
  const TimelineReport report = collect_timeline();
  ASSERT_EQ(report.events.size(), 2u);
  EXPECT_EQ(report.dropped, 0u);
  // Sorted by start: outer opened first.
  EXPECT_EQ(report.events[0].name, "outer");
  EXPECT_EQ(report.events[1].name, "inner");
  EXPECT_LE(report.events[0].start_ns, report.events[1].start_ns);
  EXPECT_GE(report.events[0].duration_ns, report.events[1].duration_ns);
}

TEST_F(TimelineTest, RingOverflowDropsOldestAndCounts) {
  set_timeline_capacity(8);
  reset_timeline();
  for (int i = 0; i < 20; ++i) {
    TraceSpan span("overflow.span");
  }
  const TimelineReport report = collect_timeline();
  EXPECT_EQ(report.events.size(), 8u);
  EXPECT_EQ(report.dropped, 12u);
  // Surviving events are the most recent and stay start-ordered.
  for (std::size_t i = 1; i < report.events.size(); ++i) {
    EXPECT_LE(report.events[i - 1].start_ns, report.events[i].start_ns);
  }
}

TEST_F(TimelineTest, OverflowedRingStillExportsWellFormedTrace) {
  set_timeline_capacity(4);
  reset_timeline();
  for (int i = 0; i < 100; ++i) {
    TraceSpan span("spin");
  }
  const std::string trace = to_chrome_trace(collect_timeline());
  util::JsonValue doc;
  std::string error;
  ASSERT_TRUE(util::parse_json(trace, doc, error)) << error;
  const util::JsonValue* dropped =
      doc.find("otherData") != nullptr ? doc.find("otherData")->find(
                                             "dropped_events")
                                       : nullptr;
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->as_number(), 96.0);
}

TEST_F(TimelineTest, ChromeTraceIsValidAndStructured) {
  {
    HOTSPOT_TRACE_SPAN("phase.one");
  }
  std::thread worker([] { HOTSPOT_TRACE_SPAN("phase.two"); });
  worker.join();

  const TimelineReport report = collect_timeline();
  const std::string trace = to_chrome_trace(report);
  util::JsonValue doc;
  std::string error;
  ASSERT_TRUE(util::parse_json(trace, doc, error)) << error;
  ASSERT_TRUE(doc.is_object());
  const util::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::set<double> tids;
  std::size_t complete_events = 0;
  std::size_t metadata_events = 0;
  for (const util::JsonValue& event : events->as_array()) {
    ASSERT_TRUE(event.is_object());
    const std::string& phase = event.find("ph")->as_string();
    ASSERT_NE(event.find("pid"), nullptr);
    ASSERT_NE(event.find("tid"), nullptr);
    if (phase == "X") {
      ++complete_events;
      ASSERT_NE(event.find("ts"), nullptr);
      ASSERT_NE(event.find("dur"), nullptr);
      EXPECT_GE(event.find("ts")->as_number(), 0.0);
      EXPECT_GE(event.find("dur")->as_number(), 0.0);
      tids.insert(event.find("tid")->as_number());
    } else {
      EXPECT_EQ(phase, "M");
      ++metadata_events;
    }
  }
  EXPECT_EQ(complete_events, report.events.size());
  EXPECT_EQ(metadata_events, report.thread_count);
  EXPECT_EQ(tids.size(), 2u) << "main + worker thread tracks";
}

TEST_F(TimelineTest, WriteChromeTraceRoundTrips) {
  {
    HOTSPOT_TRACE_SPAN("write.me");
  }
  const std::string path = test_support::test_path("timeline_trace.json");
  ASSERT_TRUE(write_chrome_trace(path, collect_timeline()));
  util::JsonValue doc;
  std::string error;
  ASSERT_TRUE(util::parse_json_file(path, doc, error)) << error;
  EXPECT_GE(doc.find("traceEvents")->size(), 1u);
}

TEST_F(TimelineTest, TimelineOffRecordsAggregatesOnly) {
  set_timeline_enabled(false);
  {
    HOTSPOT_TRACE_SPAN("aggregates.only");
  }
  EXPECT_EQ(collect_timeline().events.size(), 0u);
  const SpanReport spans = collect_span_report();
  ASSERT_NE(spans.find("aggregates.only"), nullptr);
  EXPECT_EQ(spans.find("aggregates.only")->count, 1u);
}

TEST_F(TimelineTest, ResetTimelineClearsEventsAndDrops) {
  set_timeline_capacity(2);
  reset_timeline();
  for (int i = 0; i < 10; ++i) {
    TraceSpan span("reset.me");
  }
  EXPECT_GT(collect_timeline().dropped, 0u);
  reset_timeline();
  const TimelineReport report = collect_timeline();
  EXPECT_EQ(report.events.size(), 0u);
  EXPECT_EQ(report.dropped, 0u);
}

TEST_F(TimelineTest, TimelineStatsMatchCollectedReport) {
  set_timeline_capacity(4);
  reset_timeline();
  std::thread worker([] {
    for (int i = 0; i < 6; ++i) {
      TraceSpan span("stats.worker");
    }
  });
  worker.join();
  for (int i = 0; i < 3; ++i) {
    TraceSpan span("stats.main");
  }
  const TimelineReport report = collect_timeline();
  const TimelineStats stats = timeline_stats();
  EXPECT_EQ(stats.buffered, report.events.size());
  EXPECT_EQ(stats.dropped, report.dropped);
  EXPECT_EQ(stats.threads, report.thread_count);
}

TEST_F(TimelineTest, PublishTimelineMetricsSetsGauges) {
  set_timeline_capacity(2);
  reset_timeline();
  for (int i = 0; i < 5; ++i) {
    TraceSpan span("gauge.span");
  }
  publish_timeline_metrics();
  const MetricsSnapshot snapshot = MetricsRegistry::global().snapshot();
  double events = -1.0;
  double dropped = -1.0;
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.name == "obs.timeline.events") {
      events = gauge.value;
    } else if (gauge.name == "obs.timeline.dropped") {
      dropped = gauge.value;
    }
  }
  EXPECT_EQ(events, 2.0);
  EXPECT_EQ(dropped, 3.0);
}

TEST(TimelineDisabledTest, DisabledSpanConstructionDoesNotAllocate) {
  set_trace_enabled(false);
  set_timeline_enabled(false);
  // Warm up: any lazily initialized statics on this path allocate now.
  {
    HOTSPOT_TRACE_SPAN("warmup");
  }
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    HOTSPOT_TRACE_SPAN("disabled.span");
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << "constructing a disabled TraceSpan must not allocate";
}

}  // namespace
}  // namespace hotspot::obs
