#include "obs/export.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "obs/manifest.h"
#include "support/test_support.h"
#include "util/json.h"

namespace hotspot::obs {
namespace {

// A small fixed snapshot covering every section; built by hand so the
// golden strings below are stable regardless of registry state.
MetricsSnapshot make_snapshot() {
  MetricsSnapshot snapshot;
  snapshot.counters.push_back({"cache.hit", 7});
  snapshot.counters.push_back({"cache.miss", 2});
  snapshot.gauges.push_back({"loss", 0.125});
  HistogramSample histogram;
  histogram.name = "seconds";
  histogram.bounds = {0.5, 2.0};
  histogram.buckets = {3, 1, 1};
  histogram.count = 5;
  histogram.sum = 4.25;
  snapshot.histograms.push_back(histogram);
  return snapshot;
}

SpanReport make_spans() {
  SpanReport report;
  SpanStat stat;
  stat.count = 4;
  stat.total_seconds = 1.5;
  stat.self_seconds = 0.5;
  report.spans.emplace_back("brnn.forward", stat);
  return report;
}

TEST(ExportJson, GoldenOutput) {
  const std::string json = to_json(make_snapshot(), make_spans());
  EXPECT_EQ(json,
            "{\"counters\": {\"cache.hit\": 7, \"cache.miss\": 2}, "
            "\"gauges\": {\"loss\": 0.125}, "
            "\"histograms\": {\"seconds\": {\"bounds\": [0.5, 2], "
            "\"buckets\": [3, 1, 1], \"count\": 5, \"sum\": 4.25, "
            "\"p50\": 0.416666667, \"p95\": 2, \"p99\": 2}}, "
            "\"spans\": {\"brnn.forward\": {\"count\": 4, "
            "\"total_seconds\": 1.5, \"self_seconds\": 0.5}}}");
}

TEST(ExportJson, EmptySectionsStayValid) {
  EXPECT_EQ(to_json(MetricsSnapshot{}, SpanReport{}),
            "{\"counters\": {}, \"gauges\": {}, \"histograms\": {}, "
            "\"spans\": {}}");
}

TEST(ExportJson, EscapesQuotesAndBackslashes) {
  MetricsSnapshot snapshot;
  snapshot.counters.push_back({"weird\"name\\x", 1});
  EXPECT_EQ(to_json(snapshot, SpanReport{}),
            "{\"counters\": {\"weird\\\"name\\\\x\": 1}, \"gauges\": {}, "
            "\"histograms\": {}, \"spans\": {}}");
}

TEST(ExportPrometheus, GoldenOutput) {
  const std::string text = to_prometheus(make_snapshot(), make_spans());
  EXPECT_EQ(text,
            "# TYPE cache_hit counter\n"
            "cache_hit 7\n"
            "# TYPE cache_miss counter\n"
            "cache_miss 2\n"
            "# TYPE loss gauge\n"
            "loss 0.125\n"
            "# TYPE seconds histogram\n"
            "seconds_bucket{le=\"0.5\"} 3\n"
            "seconds_bucket{le=\"2\"} 4\n"
            "seconds_bucket{le=\"+Inf\"} 5\n"
            "seconds_sum 4.25\n"
            "seconds_count 5\n"
            "# TYPE seconds_p50 gauge\n"
            "seconds_p50 0.416666667\n"
            "# TYPE seconds_p95 gauge\n"
            "seconds_p95 2\n"
            "# TYPE seconds_p99 gauge\n"
            "seconds_p99 2\n"
            "# TYPE hotspot_span_seconds gauge\n"
            "hotspot_span_seconds{span=\"brnn.forward\"} 1.5\n"
            "# TYPE hotspot_span_self_seconds gauge\n"
            "hotspot_span_self_seconds{span=\"brnn.forward\"} 0.5\n"
            "# TYPE hotspot_span_count gauge\n"
            "hotspot_span_count{span=\"brnn.forward\"} 4\n");
}

TEST(ExportPrometheus, CumulatesBuckets) {
  // Non-cumulative storage {3, 1, 1} must export as cumulative 3, 4 and the
  // +Inf bucket must equal the total count, per the exposition format.
  const std::string text = to_prometheus(make_snapshot(), SpanReport{});
  EXPECT_NE(text.find("seconds_bucket{le=\"0.5\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("seconds_bucket{le=\"2\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("seconds_bucket{le=\"+Inf\"} 5\n"), std::string::npos);
}

TEST(ExportPrometheus, SanitizesMetricNames) {
  MetricsSnapshot snapshot;
  snapshot.counters.push_back({"binary-conv.pack cache", 1});
  const std::string text = to_prometheus(snapshot, SpanReport{});
  EXPECT_NE(text.find("binary_conv_pack_cache 1\n"), std::string::npos);
}

TEST(ExportPrometheus, DistinctSourceNamesNeverCollide) {
  // Sanitization maps both of these to "scan_batch_seconds"; the exporter
  // must keep them as distinct families rather than silently merging.
  MetricsSnapshot snapshot;
  snapshot.counters.push_back({"scan-batch_seconds", 2});
  snapshot.counters.push_back({"scan.batch_seconds", 1});
  const std::string text = to_prometheus(snapshot, SpanReport{});
  EXPECT_NE(text.find("scan_batch_seconds 2\n"), std::string::npos);
  EXPECT_NE(text.find("scan_batch_seconds_2 1\n"), std::string::npos);
}

TEST(ExportPrometheus, HistogramDerivedNamesAreReserved) {
  // A histogram family also owns its _bucket/_sum/_count/_p* series names;
  // a counter that already claimed one of them forces the family to rename.
  MetricsSnapshot snapshot;
  snapshot.counters.push_back({"lat_sum", 9});
  HistogramSample histogram;
  histogram.name = "lat";
  histogram.bounds = {1.0};
  histogram.buckets = {1, 0};
  histogram.count = 1;
  histogram.sum = 0.5;
  snapshot.histograms.push_back(histogram);
  const std::string text = to_prometheus(snapshot, SpanReport{});
  EXPECT_NE(text.find("lat_sum 9\n"), std::string::npos);
  EXPECT_NE(text.find("lat_2_sum 0.5\n"), std::string::npos);
  EXPECT_NE(text.find("lat_2_count 1\n"), std::string::npos);
}

TEST(ExportPrometheus, EscapesSpanLabelValues) {
  SpanReport report;
  SpanStat stat;
  stat.count = 1;
  stat.total_seconds = 1.0;
  stat.self_seconds = 1.0;
  report.spans.emplace_back("weird\"span\\name", stat);
  const std::string text = to_prometheus(MetricsSnapshot{}, report);
  EXPECT_NE(
      text.find("hotspot_span_seconds{span=\"weird\\\"span\\\\name\"} 1\n"),
      std::string::npos);
}

TEST(ExportJson, ManifestSectionLeads) {
  RunManifest manifest;
  manifest.git_sha = "abc123";
  manifest.compiler = "gcc test";
  manifest.build_type = "Release";
  manifest.threads = 2;
  manifest.env.emplace_back("HOTSPOT_NUM_THREADS", "2");
  const std::string json =
      to_json(MetricsSnapshot{}, SpanReport{}, manifest);
  EXPECT_EQ(json.find("{\"manifest\": {\"schema_version\": 1, "
                      "\"git_sha\": \"abc123\""),
            0u);
  EXPECT_NE(json.find("\"HOTSPOT_NUM_THREADS\": \"2\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
}

TEST(ExportJson, ManifestWithControlCharactersInEnvParses) {
  // HOTSPOT_* values are copied verbatim from the environment; a tab or a
  // newline in one must still leave every manifest block valid JSON.
  ASSERT_EQ(::setenv("HOTSPOT_TEST_MANIFEST_NOTE", "a\tb\nc\x01", 1), 0);
  const std::string json = manifest_json(collect_manifest());
  ::unsetenv("HOTSPOT_TEST_MANIFEST_NOTE");
  util::JsonValue doc;
  std::string error;
  ASSERT_TRUE(util::parse_json(json, doc, error)) << error;
  const util::JsonValue* value =
      doc.find("env")->find("HOTSPOT_TEST_MANIFEST_NOTE");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->as_string(), "a\tb\nc\x01");
}

TEST(WriteMetricsJson, RoundTripsThroughFile) {
  const std::string path = test_support::test_path("metrics_export.json");
  ASSERT_TRUE(write_metrics_json(path, make_snapshot(), make_spans()));
  std::ifstream in(path, std::ios::binary);
  const std::string contents(std::istreambuf_iterator<char>(in), {});
  EXPECT_EQ(contents, to_json(make_snapshot(), make_spans()) + "\n");
}

TEST(WriteMetricsJson, BadPathFails) {
  EXPECT_FALSE(write_metrics_json("/nonexistent/dir/metrics.json",
                                  make_snapshot(), make_spans()));
}

}  // namespace
}  // namespace hotspot::obs
