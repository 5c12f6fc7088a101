#include "core/cost_model.h"

#include <gtest/gtest.h>

namespace hotspot::core {
namespace {

TEST(CostModel, SingleLayerFloatMacs) {
  // 16->32 3x3 stride 1 pad 1 on 8x8: 64 positions * 32 * 16*9 MACs.
  const LayerCost cost = binary_conv_cost(
      16, 32, 3, 1, 1, 8, 8, bitops::InputScaling::kPerChannel);
  EXPECT_EQ(cost.output_positions, 64);
  EXPECT_EQ(cost.float_macs, 64 * 32 * 16 * 9);
  EXPECT_EQ(cost.float_weight_bytes, 32 * 16 * 9 * 4);
}

TEST(CostModel, PerChannelWordOps) {
  const LayerCost cost = binary_conv_cost(
      16, 32, 3, 1, 1, 8, 8, bitops::InputScaling::kPerChannel);
  // Direct layout: per (channel, filter) pair and 64 positions, 9 XNOR
  // words and a 5-full-adder tree (25 word ops); filters at 9 bits each.
  EXPECT_EQ(cost.packed_word_ops, 16 * 32 * (9 + 25) * 64 / 64);
  EXPECT_EQ(cost.packed_float_ops, 2 * 64 * 32 * 16 + 64 * 16 * 4);
  EXPECT_EQ(cost.packed_weight_bytes, 32 * 16 * 9 / 8);
  // 1x1 shortcut: one word per pair and 64 positions, no adder tree.
  const LayerCost shortcut = binary_conv_cost(
      16, 32, 1, 2, 0, 16, 16, bitops::InputScaling::kPerChannel);
  EXPECT_EQ(shortcut.packed_word_ops, 16 * 32 * 64 / 64);
  EXPECT_EQ(shortcut.packed_weight_bytes, 32 * 16 / 8);
}

TEST(CostModel, ScalarModeWordOpsMatchPerChannel) {
  // Every scaling runs the direct conv: the same XNOR and adder-tree words
  // and filter bits; the float ops differ by the alpha map and post factor.
  const LayerCost per_channel = binary_conv_cost(
      16, 32, 3, 1, 1, 8, 8, bitops::InputScaling::kPerChannel);
  const LayerCost scalar = binary_conv_cost(
      16, 32, 3, 1, 1, 8, 8, bitops::InputScaling::kScalar);
  EXPECT_EQ(scalar.packed_word_ops, per_channel.packed_word_ops);
  EXPECT_EQ(scalar.packed_weight_bytes, 32 * 16 * 9 / 8);
  // One multiply and one add per (channel, filter, position); the scalar
  // map at ~4 ops per position, then one post multiply per output.
  EXPECT_EQ(scalar.packed_float_ops, 2 * 64 * 32 * 16 + 64 * 4 + 64 * 32);
}

TEST(CostModel, StrideShrinksPositions) {
  const LayerCost s1 = binary_conv_cost(8, 8, 3, 1, 1, 16, 16,
                                       bitops::InputScaling::kPerChannel);
  const LayerCost s2 = binary_conv_cost(8, 8, 3, 2, 1, 16, 16,
                                       bitops::InputScaling::kPerChannel);
  EXPECT_EQ(s1.output_positions, 256);
  EXPECT_EQ(s2.output_positions, 64);
}

TEST(CostModel, NetworkAggregatesAllConvs) {
  const BrnnConfig config = BrnnConfig::compact(32);
  const NetworkCost cost = network_cost(config);
  // stem + 2 per block + projection shortcuts for stages 2 and 3.
  EXPECT_EQ(cost.layers.size(), 1u + 2u * 3u + 2u);
  std::int64_t macs = 0;
  for (const auto& layer : cost.layers) {
    macs += layer.float_macs;
  }
  EXPECT_EQ(macs, cost.float_macs);
}

TEST(CostModel, StorageReductionIsLargeForWideLayers) {
  // The direct conv stores kernels at 1 bit/weight -> 32x, less the byte
  // rounding of each layer.
  BrnnConfig config = BrnnConfig::paper();
  config.scaling = bitops::InputScaling::kScalar;
  const NetworkCost cost = network_cost(config);
  EXPECT_GT(cost.storage_reduction(), 20.0);
  EXPECT_LE(cost.storage_reduction(), 32.0);
}

TEST(CostModel, ScalarModeArithmeticReductionGrowsWithWidth) {
  // The Fig. 1 trend: wider layers amortize the per-position overheads
  // (the scalar alpha map and post multiply). The direct conv pays per
  // (channel, filter, position) 34/64 word ops (9 XNOR words and a 25-op
  // adder tree per 64 positions) and a float multiply-add against 9 MACs,
  // so the reduction approaches 9 / (2 + 34/64) ~ 3.56 from below.
  auto reduction = [](std::int64_t channels) {
    const LayerCost cost = binary_conv_cost(
        channels, channels, 3, 1, 1, 16, 16, bitops::InputScaling::kScalar);
    return static_cast<double>(cost.float_macs) /
           static_cast<double>(cost.packed_word_ops + cost.packed_float_ops);
  };
  EXPECT_GT(reduction(64), reduction(16));
  EXPECT_GT(reduction(256), 3.5);
  EXPECT_LT(reduction(256), 9.0 / (2.0 + 34.0 / 64.0));
}

TEST(CostModel, PaperNetworkDominatedByBinaryOps) {
  const NetworkCost cost = network_cost(BrnnConfig::paper());
  EXPECT_GT(cost.float_macs, 0);
  EXPECT_GT(cost.arithmetic_reduction(), 1.0);
}

}  // namespace
}  // namespace hotspot::core
