// Fig. 1: real-valued vs binarized networks.
//
// The figure contrasts 32-bit float weights/activations with 1-bit ones.
// This bench measures the two consequences at matched convolution shapes:
//   * arithmetic: float conv vs packed XNOR-popcount conv throughput,
//     swept over channel width (the ratio grows with width; the paper's 8x
//     lives in the wide-layer regime of its 12-layer network), and
//   * storage: 32x weight compression.
// Both input-scaling variants are measured: the paper's per-channel alpha_T
// (Eq. 14) and XNOR-Net's scalar alpha. The packed side is the inference
// plan's conv step (core/inference_plan.h) on a lone BN -> conv block with
// default statistics: inline BN sign bits and alpha_T, then the direct
// binary conv (unit alpha_T and a post multiply by the scalar map in the
// scalar mode). The step reads and writes the plan's channel-major
// activations; the input is transposed once, outside the timed loop, and
// with batch 1 that is the same floats in the same order. The packed
// weight bytes are the cost model's (core/cost_model.h): k*k bits per
// (filter, channel).
#include <benchmark/benchmark.h>

#include "core/binary_conv.h"
#include "core/cost_model.h"
#include "core/inference_plan.h"
#include "nn/batchnorm_layer.h"
#include "nn/conv_layer.h"
#include "tensor/conv.h"
#include "tensor/tensor_ops.h"

namespace {

using namespace hotspot;

constexpr std::int64_t kSpatial = 16;

tensor::Tensor make_input(std::int64_t channels) {
  util::Rng rng(7);
  return tensor::Tensor::normal({1, channels, kSpatial, kSpatial}, rng, 0.0f,
                                1.0f);
}

void BM_FloatConv(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  util::Rng rng(1);
  nn::Conv2d conv(channels, channels, 3, 1, 1, rng);
  conv.set_training(false);
  const tensor::Tensor x = make_input(channels);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x));
  }
  state.SetItemsProcessed(state.iterations() * channels * channels * 9 *
                          kSpatial * kSpatial);
}

void BM_BinaryConvPerChannel(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  util::Rng rng(1);
  core::BinaryConv2d conv(channels, channels, 3, 1, 1,
                          bitops::InputScaling::kPerChannel, rng);
  nn::BatchNorm2d bn(channels);
  bn.set_training(false);
  const core::ConvStep packed(bn, conv);
  const tensor::Tensor x = tensor::swap_leading_axes(make_input(channels));
  for (auto _ : state) {
    benchmark::DoNotOptimize(packed.run(x));
  }
  state.SetItemsProcessed(state.iterations() * channels * channels * 9 *
                          kSpatial * kSpatial);
}

void BM_BinaryConvScalar(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  util::Rng rng(1);
  core::BinaryConv2d conv(channels, channels, 3, 1, 1,
                          bitops::InputScaling::kScalar, rng);
  nn::BatchNorm2d bn(channels);
  bn.set_training(false);
  const core::ConvStep packed(bn, conv);
  const tensor::Tensor x = tensor::swap_leading_axes(make_input(channels));
  for (auto _ : state) {
    benchmark::DoNotOptimize(packed.run(x));
  }
  state.SetItemsProcessed(state.iterations() * channels * channels * 9 *
                          kSpatial * kSpatial);
}

void BM_WeightStorage(benchmark::State& state) {
  // Model-size side of Fig. 1: bytes for one conv layer's weights.
  const std::int64_t channels = state.range(0);
  core::LayerCost cost;
  for (auto _ : state) {
    cost = core::binary_conv_cost(channels, channels, 3, 1, 1, kSpatial,
                                  kSpatial, bitops::InputScaling::kPerChannel);
    benchmark::DoNotOptimize(cost.packed_weight_bytes);
  }
  state.counters["float_bytes"] = static_cast<double>(cost.float_weight_bytes);
  state.counters["packed_bytes"] =
      static_cast<double>(cost.packed_weight_bytes);
  state.counters["compression"] =
      static_cast<double>(cost.float_weight_bytes) /
      static_cast<double>(cost.packed_weight_bytes);
}

}  // namespace

BENCHMARK(BM_FloatConv)->Arg(16)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BinaryConvPerChannel)->Arg(16)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BinaryConvScalar)->Arg(16)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WeightStorage)->Arg(64)->Arg(256);

BENCHMARK_MAIN();
