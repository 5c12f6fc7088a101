#include "core/roofline.h"

#include <cstdio>
#include <sstream>

#include "bitops/kernels/xnor_kernel.h"
#include "core/cost_model.h"
#include "util/check.h"
#include "util/table.h"

namespace hotspot::core {
namespace {

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

std::string format_fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

// Replays the BrnnModel construction order to tag each conv as main-path
// or projection shortcut; parallel to network_cost()'s push order.
std::vector<bool> main_path_flags(const BrnnConfig& config) {
  std::vector<bool> flags;
  flags.push_back(true);  // stem
  std::int64_t channels = config.stem_filters;
  for (std::size_t stage = 0; stage < config.block_filters.size(); ++stage) {
    const std::int64_t filters = config.block_filters[stage];
    const std::int64_t stride = config.block_strides[stage];
    flags.push_back(true);  // conv a
    flags.push_back(true);  // conv b
    if (channels != filters || stride != 1) {
      flags.push_back(false);  // shortcut projection
    }
    channels = filters;
  }
  return flags;
}

}  // namespace

const RooflineLayer* RooflineReport::find(const std::string& label) const {
  for (const RooflineLayer& layer : layers) {
    if (layer.label == label) {
      return &layer;
    }
  }
  return nullptr;
}

std::int64_t RooflineReport::main_path_layer_count() const {
  std::int64_t count = 0;
  for (const RooflineLayer& layer : layers) {
    if (layer.main_path) {
      ++count;
    }
  }
  return count;
}

RooflineReport build_roofline(const BrnnModel& model,
                              const obs::SpanReport& spans) {
  const BrnnConfig& config = model.config();
  const std::vector<BinaryConv2d*>& convs = model.binary_convs();
  const NetworkCost cost = network_cost(config);
  HOTSPOT_CHECK_EQ(cost.layers.size(), convs.size())
      << "cost model and model disagree on conv layer count";
  const std::vector<bool> flags = main_path_flags(config);
  HOTSPOT_CHECK_EQ(flags.size(), convs.size());

  RooflineReport report;
  report.kernel = bitops::active_xnor_kernel().name;
  report.samples = model.profile_samples();
  report.layers.reserve(convs.size() + 1);
  for (std::size_t i = 0; i < convs.size(); ++i) {
    const BinaryConv2d* conv = convs[i];
    const LayerCost& layer_cost = cost.layers[i];
    RooflineLayer layer;
    layer.label = conv->span_label();
    layer.geometry = layer_cost.name;
    layer.main_path = flags[i];
    layer.samples = report.samples;
    if (const obs::SpanStat* stat = spans.find(layer.label)) {
      layer.seconds = stat->total_seconds;
    }
    const double samples = static_cast<double>(layer.samples);
    // One packed word op stands in for 64 binary multiply-accumulates.
    layer.bitops =
        64.0 * static_cast<double>(layer_cost.packed_word_ops) * samples;
    layer.float_ops =
        static_cast<double>(layer_cost.packed_float_ops) * samples;
    report.layers.push_back(std::move(layer));
  }

  // Classifier head: dense float layer, timed by the per-layer span the
  // model's forward already opens.
  const std::int64_t head_channels = config.block_filters.back();
  RooflineLayer head;
  head.label = "brnn.layer.head_fc";
  {
    std::ostringstream geometry;
    geometry << head_channels << "->2 fc";
    head.geometry = geometry.str();
  }
  head.main_path = true;
  head.samples = report.samples;
  if (const obs::SpanStat* stat = spans.find(head.label)) {
    head.seconds = stat->total_seconds;
  }
  head.float_ops = static_cast<double>(report.samples) * 2.0 *
                   static_cast<double>(head_channels) * 2.0;
  report.layers.push_back(std::move(head));

  for (const RooflineLayer& layer : report.layers) {
    report.total_seconds += layer.seconds;
  }
  for (RooflineLayer& layer : report.layers) {
    if (layer.seconds > 0.0) {
      layer.gops_per_second =
          (layer.bitops + layer.float_ops) / layer.seconds / 1e9;
    }
    if (report.total_seconds > 0.0) {
      layer.time_fraction = layer.seconds / report.total_seconds;
    }
  }
  return report;
}

std::string to_table(const RooflineReport& report) {
  util::Table table({"layer", "geometry", "path", "samples", "time_ms",
                     "bitops", "float_ops", "Gops/s", "time_%"});
  double total_bitops = 0.0;
  double total_float_ops = 0.0;
  for (const RooflineLayer& layer : report.layers) {
    table.add_row({layer.label, layer.geometry,
                   layer.main_path ? "main" : "shortcut",
                   std::to_string(layer.samples),
                   format_fixed(layer.seconds * 1e3, 3),
                   format_double(layer.bitops), format_double(layer.float_ops),
                   format_fixed(layer.gops_per_second, 2),
                   format_fixed(layer.time_fraction * 100.0, 1)});
    total_bitops += layer.bitops;
    total_float_ops += layer.float_ops;
  }
  const double total_gops =
      report.total_seconds > 0.0
          ? (total_bitops + total_float_ops) / report.total_seconds / 1e9
          : 0.0;
  table.add_row({"total", "", "", std::to_string(report.samples),
                 format_fixed(report.total_seconds * 1e3, 3),
                 format_double(total_bitops), format_double(total_float_ops),
                 format_fixed(total_gops, 2), "100.0"});
  return "xnor kernel: " + report.kernel + "\n" + table.to_string();
}

std::string to_json(const RooflineReport& report) {
  std::ostringstream out;
  out << "{\"layers\": [";
  for (std::size_t i = 0; i < report.layers.size(); ++i) {
    const RooflineLayer& layer = report.layers[i];
    out << (i > 0 ? ", " : "") << "{\"label\": \"" << layer.label
        << "\", \"geometry\": \"" << layer.geometry << "\", \"main_path\": "
        << (layer.main_path ? "true" : "false")
        << ", \"samples\": " << layer.samples
        << ", \"seconds\": " << format_double(layer.seconds)
        << ", \"bitops\": " << format_double(layer.bitops)
        << ", \"float_ops\": " << format_double(layer.float_ops)
        << ", \"gops_per_second\": " << format_double(layer.gops_per_second)
        << ", \"time_fraction\": " << format_double(layer.time_fraction)
        << "}";
  }
  out << "], \"total_seconds\": " << format_double(report.total_seconds)
      << ", \"samples\": " << report.samples << ", \"kernel\": \""
      << report.kernel << "\"}";
  return out.str();
}

}  // namespace hotspot::core
