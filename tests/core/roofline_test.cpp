#include "core/roofline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/cost_model.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/rng.h"

namespace hotspot::core {
namespace {

class RooflineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_trace_enabled(true);
    obs::reset_spans();
  }
  void TearDown() override {
    obs::set_trace_enabled(false);
    obs::reset_spans();
  }
};

// The paper's 12-layer topology at a CI-friendly resolution.
BrnnConfig paper_config_small() {
  BrnnConfig config = BrnnConfig::paper();
  config.image_size = 32;
  return config;
}

tensor::Tensor make_batch(std::int64_t n, std::int64_t size, util::Rng& rng) {
  tensor::Tensor images({n, 1, size, size});
  for (std::int64_t i = 0; i < images.numel(); ++i) {
    images.data()[i] = rng.bernoulli(0.3) ? 1.0f : 0.0f;
  }
  return images;
}

TEST_F(RooflineTest, ListsAllPaperLayersWithTimeAndOps) {
  const BrnnConfig config = paper_config_small();
  util::Rng rng(11);
  BrnnModel model(config, rng);
  model.set_training(false);
  model.set_backend(Backend::kPacked);
  model.reset_profile();
  obs::reset_spans();

  constexpr std::int64_t kBatch = 4;
  util::Rng data_rng(5);
  model.forward(make_batch(kBatch, config.image_size, data_rng));

  const obs::SpanReport spans = obs::collect_span_report();
  const RooflineReport report = build_roofline(model, spans);

  // Paper topology: 15 binary convs (stem + 10 main-path + 4 projection
  // shortcuts) plus the fc head; 12 of those rows are main-path weight
  // layers — the paper's "12 layers".
  ASSERT_EQ(report.layers.size(), 16u);
  EXPECT_EQ(report.main_path_layer_count(), 12);
  EXPECT_EQ(report.samples, static_cast<std::uint64_t>(kBatch));

  const NetworkCost cost = network_cost(config);
  for (std::size_t i = 0; i < cost.layers.size(); ++i) {
    const RooflineLayer& layer = report.layers[i];
    EXPECT_EQ(layer.samples, static_cast<std::uint64_t>(kBatch))
        << layer.label;
    EXPECT_GT(layer.seconds, 0.0) << layer.label;
    EXPECT_GT(layer.bitops, 0.0) << layer.label;
    EXPECT_GT(layer.gops_per_second, 0.0) << layer.label;
    EXPECT_DOUBLE_EQ(
        layer.bitops,
        64.0 * static_cast<double>(cost.layers[i].packed_word_ops) * kBatch)
        << layer.label;
    EXPECT_EQ(layer.geometry, cost.layers[i].name);
    // Both stages are timed inside the conv's own span.
    EXPECT_GT(layer.input_seconds, 0.0) << layer.label;
    EXPECT_GT(layer.aggregate_seconds, 0.0) << layer.label;
    EXPECT_LE(layer.input_seconds + layer.aggregate_seconds, layer.seconds)
        << layer.label;
  }

  // The fc head is the last row: dense float work, no bitops.
  const RooflineLayer& head = report.layers.back();
  EXPECT_EQ(head.label, "brnn.layer.head_fc");
  EXPECT_TRUE(head.main_path);
  EXPECT_EQ(head.bitops, 0.0);
  EXPECT_EQ(head.input_seconds, 0.0);
  EXPECT_EQ(head.aggregate_seconds, 0.0);
  EXPECT_DOUBLE_EQ(
      head.float_ops,
      static_cast<double>(kBatch) * 2.0 *
          static_cast<double>(config.block_filters.back()) * 2.0);

  // Totals agree with the aggregate span report on the same window: every
  // roofline row's time is the matching span's total time.
  double span_total = 0.0;
  for (const RooflineLayer& layer : report.layers) {
    const obs::SpanStat* stat = spans.find(layer.label);
    ASSERT_NE(stat, nullptr) << layer.label;
    EXPECT_DOUBLE_EQ(layer.seconds, stat->total_seconds) << layer.label;
    span_total += stat->total_seconds;
  }
  EXPECT_NEAR(report.total_seconds, span_total,
              0.05 * span_total + 1e-12);

  double fraction_sum = 0.0;
  for (const RooflineLayer& layer : report.layers) {
    fraction_sum += layer.time_fraction;
  }
  EXPECT_NEAR(fraction_sum, 1.0, 1e-9);
}

TEST_F(RooflineTest, StableLabelsFollowArchitecture) {
  const BrnnConfig config = paper_config_small();
  util::Rng rng(3);
  BrnnModel model(config, rng);
  const RooflineReport report =
      build_roofline(model, obs::SpanReport{});
  EXPECT_EQ(report.layers.front().label, "brnn.conv.stem");
  EXPECT_NE(report.find("brnn.conv.block1a"), nullptr);
  EXPECT_NE(report.find("brnn.conv.block5b"), nullptr);
  // Stage 1 keeps shape (16 -> 16, stride 1): no projection shortcut.
  EXPECT_EQ(report.find("brnn.conv.block1sc"), nullptr);
  // Stage 2 changes both: shortcut present and flagged off the main path.
  const RooflineLayer* shortcut = report.find("brnn.conv.block2sc");
  ASSERT_NE(shortcut, nullptr);
  EXPECT_FALSE(shortcut->main_path);
}

TEST_F(RooflineTest, UnprofiledModelReportsZeros) {
  const BrnnConfig config = BrnnConfig::compact(32);
  util::Rng rng(1);
  BrnnModel model(config, rng);
  const RooflineReport report =
      build_roofline(model, obs::SpanReport{});
  EXPECT_EQ(report.samples, 0u);
  EXPECT_EQ(report.total_seconds, 0.0);
  for (const RooflineLayer& layer : report.layers) {
    EXPECT_EQ(layer.seconds, 0.0);
    EXPECT_EQ(layer.gops_per_second, 0.0);
  }
}

TEST_F(RooflineTest, ProfilingOnlyCountsWhileTracingEnabled) {
  const BrnnConfig config = BrnnConfig::compact(32);
  util::Rng rng(1);
  BrnnModel model(config, rng);
  model.set_training(false);
  model.reset_profile();
  util::Rng data_rng(2);

  obs::set_trace_enabled(false);
  model.forward(make_batch(2, config.image_size, data_rng));
  EXPECT_EQ(model.profile_samples(), 0u);

  // One count per traced forward, on either backend.
  obs::set_trace_enabled(true);
  model.forward(make_batch(3, config.image_size, data_rng));
  EXPECT_EQ(model.profile_samples(), 3u);
  model.set_backend(Backend::kFloatSim);
  model.forward(make_batch(2, config.image_size, data_rng));
  EXPECT_EQ(model.profile_samples(), 5u);

  model.reset_profile();
  EXPECT_EQ(model.profile_samples(), 0u);
}

TEST_F(RooflineTest, TableAndJsonRenderEveryLayer) {
  const BrnnConfig config = BrnnConfig::compact(32);
  util::Rng rng(9);
  BrnnModel model(config, rng);
  model.set_training(false);
  model.reset_profile();
  obs::reset_spans();
  util::Rng data_rng(4);
  model.forward(make_batch(2, config.image_size, data_rng));

  const RooflineReport report =
      build_roofline(model, obs::collect_span_report());
  const std::string table = to_table(report);
  for (const RooflineLayer& layer : report.layers) {
    EXPECT_NE(table.find(layer.label), std::string::npos) << layer.label;
  }
  EXPECT_NE(table.find("total"), std::string::npos);

  util::JsonValue doc;
  std::string error;
  ASSERT_TRUE(util::parse_json(to_json(report), doc, error)) << error;
  ASSERT_NE(doc.find("layers"), nullptr);
  EXPECT_EQ(doc.find("layers")->size(), report.layers.size());
  const util::JsonValue& first = doc.find("layers")->as_array().front();
  ASSERT_NE(first.find("input_seconds"), nullptr);
  EXPECT_DOUBLE_EQ(first.find("input_seconds")->as_number(),
                   report.layers.front().input_seconds);
  ASSERT_NE(first.find("aggregate_seconds"), nullptr);
  EXPECT_DOUBLE_EQ(first.find("aggregate_seconds")->as_number(),
                   report.layers.front().aggregate_seconds);
  EXPECT_NE(table.find("aggregate_ms"), std::string::npos);
  EXPECT_DOUBLE_EQ(doc.find("total_seconds")->as_number(),
                   report.total_seconds);
}

using GraphRoofline = RooflineTest;  // tracing on, spans reset

TEST_F(GraphRoofline, OneRowPerFusedConvPlusHead) {
  // Every scaling mode runs the direct aggregate and reports its input and
  // aggregate stages.
  for (const bitops::InputScaling scaling :
       {bitops::InputScaling::kPerChannel, bitops::InputScaling::kScalar}) {
    SCOPED_TRACE(bitops::to_string(scaling));
    BrnnConfig config = BrnnConfig::compact(32);
    config.scaling = scaling;
    util::Rng rng(19);
    BrnnModel model(config, rng);
    model.set_training(false);
    obs::reset_spans();
    util::Rng data_rng(43);
    model.forward(make_batch(4, 32, data_rng));
    const RooflineReport report =
        build_roofline(model, obs::collect_span_report());

    // 9 conv rows + 1 fc row, each timed by the plan's spans over the same
    // samples.
    ASSERT_EQ(report.layers.size(), 10u);
    EXPECT_EQ(report.samples, 4u);
    int shortcut_rows = 0;
    for (const RooflineLayer& layer : report.layers) {
      EXPECT_EQ(layer.samples, 4u) << layer.label;
      EXPECT_GT(layer.seconds, 0.0) << layer.label;
      if (layer.label != "brnn.layer.head_fc") {
        EXPECT_GT(layer.bitops, 0.0) << layer.label;
        EXPECT_GT(layer.input_seconds, 0.0) << layer.label;
        EXPECT_GT(layer.aggregate_seconds, 0.0) << layer.label;
        EXPECT_LE(layer.input_seconds + layer.aggregate_seconds,
                  layer.seconds)
            << layer.label;
      }
      shortcut_rows += !layer.main_path;
    }
    EXPECT_EQ(shortcut_rows, 2);  // the two projection shortcuts
    EXPECT_FALSE(to_table(report).empty());
  }
}

}  // namespace
}  // namespace hotspot::core
