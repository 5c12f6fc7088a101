// FlightRecorder: bounded ring of completed-request summaries. Covers
// ordering, wraparound accounting, strict-JSON output, the fault-injected
// dump path, and writer/reader races on the slot locks.
#include "obs/request_trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "support/test_support.h"
#include "util/fault_injection.h"
#include "util/json.h"

namespace hotspot::obs {
namespace {

RequestTrace make_trace(std::uint64_t id) {
  RequestTrace trace;
  trace.request_id = id;
  trace.client_request_id = static_cast<std::uint32_t>(id * 10);
  trace.tenant = "tenant-" + std::to_string(id % 3);
  trace.clips = 4;
  trace.start_ns = id * 1000;
  trace.decode_seconds = 0.001;
  trace.queue_seconds = 0.002;
  trace.batch_seconds = 0.003;
  trace.infer_seconds = 0.004;
  trace.encode_seconds = 0.005;
  trace.total_seconds = 0.015;
  trace.model_version = 7;
  trace.hotspots = 2;
  trace.outcome = RequestOutcome::kOk;
  return trace;
}

TEST(FlightRecorder, RecordsInOrderBelowCapacity) {
  FlightRecorder recorder(8);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    recorder.record(make_trace(id));
  }
  const std::vector<RequestTrace> entries = recorder.snapshot();
  ASSERT_EQ(entries.size(), 5u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].request_id, i + 1);  // oldest first
  }
  EXPECT_EQ(recorder.recorded(), 5u);
}

TEST(FlightRecorder, WraparoundKeepsNewestAndCountsDrops) {
  FlightRecorder recorder(4);
  for (std::uint64_t id = 1; id <= 10; ++id) {
    recorder.record(make_trace(id));
  }
  const std::vector<RequestTrace> entries = recorder.snapshot();
  ASSERT_EQ(entries.size(), 4u);
  // Survivors are the newest four, still oldest-first.
  EXPECT_EQ(entries.front().request_id, 7u);
  EXPECT_EQ(entries.back().request_id, 10u);
  EXPECT_EQ(recorder.recorded(), 10u);

  util::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(util::parse_json(recorder.to_json(), parsed, error)) << error;
  EXPECT_EQ(parsed.find("capacity")->as_number(), 4.0);
  EXPECT_EQ(parsed.find("recorded")->as_number(), 10.0);
  EXPECT_EQ(parsed.find("dropped")->as_number(), 6.0);
  EXPECT_EQ(parsed.find("entries")->as_array().size(), 4u);
}

TEST(FlightRecorder, ToJsonIsStrictJsonWithLimit) {
  FlightRecorder recorder(8);
  for (std::uint64_t id = 1; id <= 6; ++id) {
    RequestTrace trace = make_trace(id);
    trace.tenant = "quo\"te\\ten";  // escaping must hold up
    recorder.record(trace);
  }
  util::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(util::parse_json(recorder.to_json(2), parsed, error)) << error;
  const auto& entries = parsed.find("entries")->as_array();
  ASSERT_EQ(entries.size(), 2u);  // only the newest two
  EXPECT_EQ(entries[0].find("request_id")->as_number(), 5.0);
  EXPECT_EQ(entries[1].find("request_id")->as_number(), 6.0);
  EXPECT_EQ(entries[1].find("tenant")->as_string(), "quo\"te\\ten");
  EXPECT_EQ(entries[1].find("outcome")->as_string(), "ok");
}

TEST(FlightRecorder, NonFiniteSecondsStillEmitParseableJson) {
  FlightRecorder recorder(2);
  RequestTrace trace = make_trace(1);
  trace.infer_seconds = std::nan("");
  trace.total_seconds = std::numeric_limits<double>::infinity();
  recorder.record(trace);
  util::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(util::parse_json(recorder.to_json(), parsed, error)) << error;
  const auto& entry = parsed.find("entries")->as_array()[0];
  // format_double clamps non-finite to 0 — garbage in, parseable out.
  EXPECT_EQ(entry.find("infer_seconds")->as_number(), 0.0);
  EXPECT_EQ(entry.find("total_seconds")->as_number(), 0.0);
}

TEST(FlightRecorder, DumpWritesStrictJsonFile) {
  FlightRecorder recorder(4);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    recorder.record(make_trace(id));
  }
  const std::string path = test_support::test_path("flight_dump_ok.json");
  std::string error;
  ASSERT_TRUE(recorder.dump(path, &error)) << error;
  util::JsonValue parsed;
  ASSERT_TRUE(util::parse_json_file(path, parsed, error)) << error;
  EXPECT_EQ(parsed.find("entries")->as_array().size(), 3u);
  std::remove(path.c_str());
}

TEST(FlightRecorder, DumpWriteFaultFailsWithoutPublishing) {
  FlightRecorder recorder(4);
  recorder.record(make_trace(1));
  const std::string path = test_support::test_path("flight_dump_fault.json");
  util::fault_arm(util::FaultPoint::kJournalWrite, 1);
  std::string error;
  EXPECT_FALSE(recorder.dump(path, &error));
  EXPECT_FALSE(error.empty());
  util::fault_clear_all();
  // tmp+rename discipline: a failed dump leaves no destination file.
  std::FILE* file = std::fopen(path.c_str(), "r");
  EXPECT_EQ(file, nullptr);
  if (file != nullptr) {
    std::fclose(file);
  }
}

TEST(FlightRecorder, ConcurrentWritersProduceInternallyConsistentEntries) {
  FlightRecorder recorder(64);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Every field derives from request_id, so a torn copy is visible.
        const auto id =
            static_cast<std::uint64_t>(t) * kPerThread + i + 1;
        RequestTrace trace = make_trace(id);
        trace.client_request_id = static_cast<std::uint32_t>(id);
        trace.start_ns = id;
        trace.model_version = id;
        recorder.record(trace);
      }
    });
  }
  // A concurrent reader must never observe a half-written slot.
  std::thread reader([&recorder] {
    for (int i = 0; i < 200; ++i) {
      for (const RequestTrace& trace : recorder.snapshot()) {
        ASSERT_EQ(trace.client_request_id,
                  static_cast<std::uint32_t>(trace.request_id));
        ASSERT_EQ(trace.start_ns, trace.request_id);
        ASSERT_EQ(trace.model_version, trace.request_id);
      }
    }
  });
  for (std::thread& writer : writers) {
    writer.join();
  }
  reader.join();
  EXPECT_EQ(recorder.recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const std::vector<RequestTrace> entries = recorder.snapshot();
  EXPECT_EQ(entries.size(), 64u);
  for (const RequestTrace& trace : entries) {
    EXPECT_EQ(trace.client_request_id,
              static_cast<std::uint32_t>(trace.request_id));
    EXPECT_EQ(trace.model_version, trace.request_id);
  }
}

}  // namespace
}  // namespace hotspot::obs
