#include "core/cost_model.h"

#include <bit>
#include <sstream>

#include "tensor/conv.h"
#include "util/check.h"

namespace hotspot::core {

double NetworkCost::arithmetic_reduction() const {
  const double heavy_ops =
      static_cast<double>(packed_word_ops) +
      static_cast<double>(packed_float_ops);
  return heavy_ops == 0.0 ? 0.0 : static_cast<double>(float_macs) / heavy_ops;
}

double NetworkCost::storage_reduction() const {
  return packed_weight_bytes == 0
             ? 0.0
             : static_cast<double>(float_weight_bytes) /
                   static_cast<double>(packed_weight_bytes);
}

LayerCost binary_conv_cost(std::int64_t in_channels, std::int64_t out_channels,
                           std::int64_t kernel, std::int64_t stride,
                           std::int64_t pad, std::int64_t in_h,
                           std::int64_t in_w, bitops::InputScaling scaling) {
  HOTSPOT_CHECK_GT(in_channels, 0);
  HOTSPOT_CHECK_GT(out_channels, 0);
  LayerCost cost;
  const std::int64_t out_h = tensor::conv_out_extent(in_h, kernel, stride, pad);
  const std::int64_t out_w = tensor::conv_out_extent(in_w, kernel, stride, pad);
  cost.output_positions = out_h * out_w;
  const std::int64_t patch = in_channels * kernel * kernel;

  std::ostringstream name;
  name << in_channels << "->" << out_channels << " k" << kernel << " s"
       << stride << " @" << in_h << "x" << in_w;
  cost.name = name.str();

  cost.float_macs = cost.output_positions * out_channels * patch;
  cost.float_weight_bytes =
      out_channels * patch * static_cast<std::int64_t>(sizeof(float));

  // Direct layout (core::direct_conv) for every scaling, output positions
  // in the lanes: per (input channel, filter) pair and 64 positions, k*k
  // XNOR words plus the carry-save adder tree that counts them
  // (k*k - bit_width(k*k) full adders of 5 word ops each); per (channel,
  // filter, position) one float multiply and one add. Per-channel and
  // scalar alpha_T add their alpha map (a separable box sum evaluated at
  // the output positions -> ~4 ops per channel and position, or per
  // position), and the scalar
  // map one post multiply per output. Filters stay at k*k bits per
  // (filter, channel).
  const std::int64_t taps = kernel * kernel;
  const std::int64_t tree =
      5 * (taps - static_cast<std::int64_t>(
                      std::bit_width(static_cast<std::uint64_t>(taps))));
  cost.packed_word_ops =
      (in_channels * out_channels * (taps + tree) * cost.output_positions +
       63) /
      64;
  cost.packed_float_ops =
      2 * cost.output_positions * out_channels * in_channels;  // mul, add
  if (scaling == bitops::InputScaling::kPerChannel) {
    cost.packed_float_ops += cost.output_positions * in_channels * 4;
  } else {
    cost.packed_float_ops += cost.output_positions * (4 + out_channels);
  }
  cost.packed_weight_bytes = (out_channels * in_channels * taps + 7) / 8;
  return cost;
}

NetworkCost network_cost(const BrnnConfig& config) {
  HOTSPOT_CHECK_EQ(config.block_filters.size(), config.block_strides.size());
  NetworkCost total;
  auto push = [&total](LayerCost cost) {
    total.float_macs += cost.float_macs;
    total.packed_word_ops += cost.packed_word_ops;
    total.packed_float_ops += cost.packed_float_ops;
    total.float_weight_bytes += cost.float_weight_bytes;
    total.packed_weight_bytes += cost.packed_weight_bytes;
    total.layers.push_back(std::move(cost));
  };

  std::int64_t resolution = config.image_size;
  push(binary_conv_cost(1, config.stem_filters, 3, config.stem_stride, 1,
                        resolution, resolution, config.scaling));
  resolution = tensor::conv_out_extent(resolution, 3, config.stem_stride, 1);
  if (config.stem_pool) {
    resolution /= 2;
  }

  std::int64_t channels = config.stem_filters;
  for (std::size_t stage = 0; stage < config.block_filters.size(); ++stage) {
    const std::int64_t filters = config.block_filters[stage];
    const std::int64_t stride = config.block_strides[stage];
    push(binary_conv_cost(channels, filters, 3, stride, 1, resolution,
                          resolution, config.scaling));
    const std::int64_t out_resolution =
        tensor::conv_out_extent(resolution, 3, stride, 1);
    push(binary_conv_cost(filters, filters, 3, 1, 1, out_resolution,
                          out_resolution, config.scaling));
    if (channels != filters || stride != 1) {
      LayerCost shortcut = binary_conv_cost(channels, filters, 1, stride, 0,
                                            resolution, resolution,
                                            config.scaling);
      shortcut.main_path = false;
      push(std::move(shortcut));
    }
    resolution = out_resolution;
    channels = filters;
  }
  return total;
}

}  // namespace hotspot::core
