// The differential Eq. 15 harness (DESIGN.md §14): kernel primitives
// (KernelIdentity), single BN -> BinaryConv blocks (ConvReferenceBlock) and
// whole networks (FusionIdentity*), on every runnable kernel, through the
// kPacked forward and the published plan, at 1 and 4 threads, all compared
// bitwise against the one reference in support/eq15_reference.h; float-sim
// against the same reference to 1e-3 per conv (ScalingModeTest) and 1e-2
// in the logits (PackedEquivalence*).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bitops/kernels/xnor_kernel.h"
#include "core/brnn.h"
#include "core/inference_plan.h"
#include "nn/batchnorm_layer.h"
#include "nn/residual.h"
#include "support/eq15_reference.h"
#include "support/test_support.h"
#include "tensor/tensor_ops.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace hotspot::core {
namespace {

using bitops::InputScaling;
using bitops::XnorKernel;
using tensor::Tensor;
using test_support::expect_bit_identical;
using test_support::KernelGuard;
using test_support::runnable_kernels;
using test_support::ThreadsGuard;

constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
const int kThreadCounts[] = {1, 4};

// Names the parameterized cases: "PerChannel", "Scalar".
std::string scaling_name(InputScaling scaling) {
  switch (scaling) {
    case InputScaling::kPerChannel:
      return "PerChannel";
    case InputScaling::kScalar:
      return "Scalar";
  }
  return "Unknown";
}

const InputScaling kScalings[] = {InputScaling::kPerChannel,
                                  InputScaling::kScalar};

// The kernel primitive against its plain definition. Every runnable
// kernel, scalar included, meets the same definition, so every kernel also
// matches the scalar kernel bit for bit.

// direct_accumulate against the canonical weighted order of the reference,
// one lane at a time: every channel count 0-37 and counts above 64 (every
// tail of the 8-channel and 4-channel adder-tree blocks), for 3x3 and 1x1
// taps, alpha rows wider than the 64 lanes (as the plan's lane layout is)
// with exact zeros and denormals, and random tap words and weight bits.
// Then the unit alpha of the scalar mode (one row of 1.0f at
// alpha_stride 0): the result is also the reference's dense epilogue of
// the integer patch count, count * scale.
TEST(KernelIdentity, DirectAccumulateMatchesCanonicalOrder) {
  util::Rng rng(73);
  std::vector<std::int64_t> channel_counts;
  for (std::int64_t c = 0; c <= 37; ++c) {
    channel_counts.push_back(c);
  }
  channel_counts.insert(channel_counts.end(), {63, 64, 65, 129});
  constexpr std::int64_t kAlphaStride = 64 * 3;
  for (const std::int64_t channels : channel_counts) {
    for (const std::int64_t ntaps : {9, 1}) {
      // Padding channels up to the stride hold zero taps and weights.
      const std::int64_t stride = (channels + 7) / 8 * 8;
      std::vector<std::uint64_t> taps(static_cast<std::size_t>(ntaps * stride));
      std::vector<std::uint16_t> weights(static_cast<std::size_t>(stride));
      for (std::int64_t c = 0; c < channels; ++c) {
        for (std::int64_t t = 0; t < ntaps; ++t) {
          taps[static_cast<std::size_t>(t * stride + c)] = rng.next_u64();
        }
        weights[static_cast<std::size_t>(c)] = static_cast<std::uint16_t>(
            rng.next_u64() & ((1u << ntaps) - 1));
      }
      std::vector<float> alpha(
          static_cast<std::size_t>(channels * kAlphaStride));
      for (float& a : alpha) {
        const double pick = rng.uniform();
        a = pick < 0.1    ? 0.0f
            : pick < 0.15 ? kDenorm
                          : static_cast<float>(rng.uniform(0.0, 2.0));
      }
      const auto scale = static_cast<float>(rng.uniform(0.1, 1.5));
      // The reference, lane by lane: the +/-1 dot of each channel's taps
      // with its weight signs, weighted by alpha and by the unit alpha (a
      // row of 1.0f read at alpha_stride 0).
      const std::vector<float> unit(
          static_cast<std::size_t>(std::max<std::int64_t>(channels, 64)),
          1.0f);
      float want[64];
      float want_unit[64];
      for (int j = 0; j < 64; ++j) {
        std::vector<std::int64_t> dots;
        std::vector<float> lane_alpha;
        std::int64_t count = 0;
        for (std::int64_t c = 0; c < channels; ++c) {
          std::int64_t dot = 0;
          for (std::int64_t t = 0; t < ntaps; ++t) {
            const bool x =
                (taps[static_cast<std::size_t>(t * stride + c)] >> j) & 1u;
            const bool w = (weights[static_cast<std::size_t>(c)] >> t) & 1u;
            dot += x == w ? 1 : -1;
          }
          dots.push_back(dot);
          count += dot;
          lane_alpha.push_back(
              alpha[static_cast<std::size_t>(c * kAlphaStride + j)]);
        }
        want[j] = eq15::canonical_weighted_sum(lane_alpha.data(), dots.data(),
                                               channels) *
                  scale;
        want_unit[j] = eq15::canonical_weighted_sum(unit.data(), dots.data(),
                                                    channels) *
                       scale;
        // With unit alpha every partial sum is an exact integer.
        const float epilogue = eq15::dense_epilogue(count, scale, 1.0f);
        ASSERT_EQ(std::memcmp(&want_unit[j], &epilogue, sizeof(float)), 0)
            << "channels=" << channels << " lane=" << j;
      }
      for (const XnorKernel* kernel : runnable_kernels()) {
        float got[64];
        kernel->direct_accumulate(taps.data(), weights.data(), alpha.data(),
                                  kAlphaStride, channels, stride, ntaps, scale,
                                  got);
        float got_unit[64];
        kernel->direct_accumulate(taps.data(), weights.data(), unit.data(),
                                  /*alpha_stride=*/0, channels, stride, ntaps,
                                  scale, got_unit);
        for (int j = 0; j < 64; ++j) {
          EXPECT_EQ(std::memcmp(&got[j], &want[j], sizeof(float)), 0)
              << kernel->name << " channels=" << channels
              << " ntaps=" << ntaps << " lane=" << j << ": " << got[j]
              << " vs " << want[j];
          EXPECT_EQ(std::memcmp(&got_unit[j], &want_unit[j], sizeof(float)), 0)
              << kernel->name << " unit alpha, channels=" << channels
              << " ntaps=" << ntaps << " lane=" << j << ": " << got_unit[j]
              << " vs " << want_unit[j];
        }
      }
    }
  }
}

// Single BN -> BinaryConv blocks.

struct BlockCase {
  std::int64_t cin, cout, height, width;
  std::int64_t kernel, stride;  // kernel 3 (pad 1) or 1 (pad 0)
  std::int64_t batch;
  InputScaling scaling;
  bool edge_stats;  // BN edge statistics in eight of every nine channels
  std::uint64_t seed;
};

constexpr std::int64_t kDefaultBatch = 2;

// Names the ctest entries (gtest would otherwise dump the struct's bytes).
void PrintTo(const BlockCase& c, std::ostream* os) {
  *os << "c" << c.cin << "x" << c.cout << "_k" << c.kernel << "s" << c.stride
      << "_" << c.height << "x" << c.width;
  if (c.batch != kDefaultBatch) {
    *os << "_n" << c.batch;
  }
  *os << "_" << scaling_name(c.scaling) << (c.edge_stats ? "_Edge" : "");
}

// Fixed shapes covering a single input channel, odd widths at stride 2 (the
// right-edge padding column is read), 1x1 shortcuts, and widths that are
// not multiples of 4 above 64 channels; shapes for the lane words of the
// direct conv (output planes under 64 positions, so lane words span samples
// and split them: 2x2, 3x3, 5x5; batches of 1, 3, 17 and 64; odd widths and
// heights at stride 2; output rows wider than 64; 1x1 stride-2 shortcuts);
// then seeded random shapes. Every shape runs under both scalings, with
// ordinary and with edge BN statistics.
std::vector<BlockCase> block_cases() {
  struct Shape {
    std::int64_t cin, cout, height, width, kernel, stride;
    std::int64_t batch = kDefaultBatch;
  };
  std::vector<Shape> shapes = {
      {1, 8, 9, 11, 3, 1},  {3, 5, 7, 7, 3, 2},   {13, 7, 8, 9, 3, 1},
      {16, 32, 9, 9, 1, 2}, {67, 70, 5, 7, 3, 2}, {70, 9, 4, 4, 1, 1},
      {65, 66, 6, 5, 3, 1}};
  util::Rng rng(2026);
  for (int i = 0; i < 3; ++i) {
    const std::int64_t kernel = rng.bernoulli(0.7) ? 3 : 1;
    shapes.push_back({rng.uniform_int(1, 80), rng.uniform_int(1, 80),
                      rng.uniform_int(3, 12), rng.uniform_int(3, 12), kernel,
                      rng.uniform_int(1, 2)});
  }
  const Shape lane_shapes[] = {
      {9, 8, 4, 4, 3, 2, 17},     // 2x2 planes, 16 samples per lane word
      {4, 7, 2, 2, 3, 1, 3},      // 2x2 planes, one partial word
      {3, 5, 3, 3, 3, 1, 64},     // 3x3 planes, words split samples
      {6, 4, 5, 5, 3, 1, 17},     // 5x5 planes, a partial last word
      {2, 3, 10, 9, 3, 2, 1},     // odd width and height at stride 2
      {7, 5, 9, 7, 3, 2, 3},      // odd width at stride 2
      {1, 16, 256, 256, 3, 2, 1},  // the paper stem at 256 px: 128-wide rows
      {1, 8, 3, 130, 3, 1, 1},    // 130-wide rows at stride 1
      {24, 40, 8, 8, 1, 2, 17},   // 1x1 stride-2 shortcut, 4x4 planes
      {5, 6, 7, 5, 1, 2, 3}};     // 1x1 stride-2 shortcut, odd sizes
  shapes.insert(shapes.end(), std::begin(lane_shapes), std::end(lane_shapes));
  std::vector<BlockCase> cases;
  std::uint64_t seed = 100;
  for (const Shape& s : shapes) {
    for (const InputScaling scaling : kScalings) {
      for (const bool edge : {false, true}) {
        cases.push_back({s.cin, s.cout, s.height, s.width, s.kernel, s.stride,
                         s.batch, scaling, edge, seed++});
      }
    }
  }
  return cases;
}

// Edge statistics for channel c of a BN: kind (c + offset) % 8 of zero
// variance, negative variance (clamped by the layer), 1e-30 variance,
// gamma = beta = 0 (a +0 output), gamma = beta = -0 (+/-0 by the sign of
// xhat), negative gamma with beta = -0 (-0 where x equals the mean), a
// denormal gamma, a denormal beta.
void set_edge_stats(nn::BatchNorm2d& bn, std::int64_t c, std::int64_t offset) {
  float& var = bn.mutable_running_var()[c];
  float& gamma = bn.gamma().value[c];
  float& beta = bn.beta().value[c];
  switch ((c + offset) % 8) {
    case 0: var = 0.0f; break;
    case 1: var = -0.5f; break;
    case 2: var = 1e-30f; break;
    case 3: gamma = 0.0f; beta = 0.0f; break;
    case 4: gamma = -0.0f; beta = -0.0f; break;
    case 5: gamma = -std::fabs(gamma); beta = -0.0f; break;
    case 6: gamma = kDenorm; break;
    default: beta = kDenorm; break;
  }
}

// An eval-mode BN with seeded statistics (negative gammas included); with
// `edge_stats`, eight of every nine channels take edge statistics.
std::unique_ptr<nn::BatchNorm2d> make_bn(std::int64_t channels,
                                         bool edge_stats, std::uint64_t seed,
                                         util::Rng& rng) {
  auto bn = std::make_unique<nn::BatchNorm2d>(channels);
  for (std::int64_t c = 0; c < channels; ++c) {
    bn->mutable_running_mean()[c] = static_cast<float>(rng.uniform(-0.5, 0.5));
    bn->mutable_running_var()[c] = static_cast<float>(rng.uniform(0.2, 2.0));
    bn->gamma().value[c] = static_cast<float>(rng.uniform(-1.5, 1.5));
    bn->beta().value[c] = static_cast<float>(rng.uniform(-0.5, 0.5));
    if (edge_stats && (c + static_cast<std::int64_t>(seed)) % 9 != 8) {
      set_edge_stats(*bn, c, static_cast<std::int64_t>(seed));
    }
  }
  bn->set_training(false);
  return bn;
}

// Uniform inputs with exact edge values sprinkled in: the channel mean
// (xhat = 0, so the BN output is beta, signed zeros included), +/-0 and
// +/- denormals.
Tensor make_block_input(const BlockCase& c, const nn::BatchNorm2d& bn,
                        util::Rng& rng) {
  Tensor x =
      Tensor::uniform({c.batch, c.cin, c.height, c.width}, rng, -2.0f, 2.0f);
  const std::int64_t plane = c.height * c.width;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const double pick = rng.uniform();
    if (pick < 0.08) {
      x[i] = bn.running_mean()[(i / plane) % c.cin];
    } else if (pick < 0.12) {
      x[i] = rng.bernoulli(0.5) ? 0.0f : -0.0f;
    } else if (pick < 0.14) {
      x[i] = rng.bernoulli(0.5) ? kDenorm : -kDenorm;
    }
  }
  return x;
}

// One block case built from its seed: the BN, the conv, the raw input, the
// materialized BN output and the reference conv output.
struct BlockSetup {
  explicit BlockSetup(const BlockCase& c)
      : rng(c.seed),
        bn(make_bn(c.cin, c.edge_stats, c.seed, rng)),
        conv(c.cin, c.cout, c.kernel, c.stride, c.kernel / 2, c.scaling, rng),
        x(make_block_input(c, *bn, rng)),
        bn_out(bn->forward(x)),
        want(eq15::binary_conv(bn_out, conv.weight().value, conv.spec(),
                               c.scaling)) {}

  util::Rng rng;
  std::unique_ptr<nn::BatchNorm2d> bn;
  BinaryConv2d conv;
  Tensor x, bn_out, want;
};

class ConvReferenceBlock : public ::testing::TestWithParam<BlockCase> {};

TEST_P(ConvReferenceBlock, MatchesReference) {
  const BlockCase& c = GetParam();
  BlockSetup block(c);
  if (c.edge_stats && c.cin >= 8) {
    // Every edge kind is present, so the sign rule meets both signed zeros.
    int zeros[2] = {0, 0};
    for (std::int64_t i = 0; i < block.bn_out.numel(); ++i) {
      zeros[std::signbit(block.bn_out[i]) ? 1 : 0] +=
          block.bn_out[i] == 0.0f ? 1 : 0;
    }
    EXPECT_TRUE(zeros[0] > 0 && zeros[1] > 0);
  }

  KernelGuard kernel_guard;
  ThreadsGuard threads_guard;
  for (const XnorKernel* kernel : runnable_kernels()) {
    bitops::set_active_xnor_kernel(*kernel);
    const ConvStep step(*block.bn, block.conv);  // compiled for this kernel
    // The step reads and writes channel-major activations.
    const Tensor x = tensor::swap_leading_axes(block.x);
    for (const int threads : kThreadCounts) {
      util::set_parallel_threads(threads);
      expect_bit_identical(tensor::swap_leading_axes(step.run(x)), block.want,
                           std::string("plan conv step, kernel=") +
                               kernel->name +
                               " threads=" + std::to_string(threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Blocks, ConvReferenceBlock,
                         ::testing::ValuesIn(block_cases()),
                         [](const auto& param_info) {
                           return ::testing::PrintToString(param_info.param);
                         });

// Float-sim emulates the same arithmetic in another order, so it is not
// bit-identical; it stays within 1e-3 of the reference on every block case
// with ordinary statistics (the absolute bound is meaningless at edge
// statistics: a zero-variance channel multiplies its inputs by
// 1/sqrt(eps)).
class ScalingModeTest : public ::testing::TestWithParam<InputScaling> {};

TEST_P(ScalingModeTest, FloatSimMatchesEq15Reference) {
  int checked = 0;
  for (const BlockCase& c : block_cases()) {
    if (c.scaling != GetParam() || c.edge_stats) {
      continue;
    }
    BlockSetup block(c);
    const Tensor float_sim = block.conv.forward(block.bn_out);
    EXPECT_TRUE(tensor::allclose(float_sim, block.want, 1e-3))
        << ::testing::PrintToString(c) << ": max diff "
        << tensor::max_abs_diff(float_sim, block.want);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Modes, ScalingModeTest, ::testing::ValuesIn(kScalings),
                         [](const auto& param_info) {
                           return scaling_name(param_info.param);
                         });

// Whole networks.

// Seeded weights with batch-norm statistics from three training forwards
// and random BN affines (negative gammas included), left in eval mode on
// the default kPacked backend.
std::unique_ptr<BrnnModel> make_model(const BrnnConfig& config,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  auto model = std::make_unique<BrnnModel>(config, rng);
  model->set_training(true);
  for (int i = 0; i < 3; ++i) {
    model->forward(Tensor::uniform(
        {6, 1, config.image_size, config.image_size}, rng,
        0.0f, 1.0f));
  }
  model->set_training(false);
  for (nn::Parameter* param : model->parameters()) {
    if (param->name == "gamma" || param->name == "beta") {
      for (std::int64_t i = 0; i < param->value.numel(); ++i) {
        param->value[i] = static_cast<float>(rng.uniform(-1.5, 1.5));
      }
      param->bump_version();
    }
  }
  return model;
}

Tensor images_for(const BrnnConfig& config, std::int64_t n,
                  std::uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::uniform(
      {n, 1, config.image_size, config.image_size}, rng,
      0.0f, 1.0f);
}

// The BN in front of every binary conv, in network order.
std::vector<nn::BatchNorm2d*> conv_block_bns(nn::Sequential& net) {
  std::vector<nn::BatchNorm2d*> out;
  auto add_block = [&out](nn::Module& block) {
    out.push_back(&dynamic_cast<nn::BatchNorm2d&>(
        dynamic_cast<nn::Sequential&>(block).at(0)));
  };
  for (std::size_t i = 0; i < net.size(); ++i) {
    nn::Module& layer = net.at(i);
    if (dynamic_cast<nn::Sequential*>(&layer) != nullptr) {
      add_block(layer);
    } else if (auto* residual = dynamic_cast<nn::ResidualBlock*>(&layer)) {
      auto& main_path = dynamic_cast<nn::Sequential&>(residual->main_path());
      add_block(main_path.at(0));
      add_block(main_path.at(1));
      if (residual->shortcut() != nullptr) {
        add_block(*residual->shortcut());
      }
    }
  }
  return out;
}

// Puts BN edge statistics (set_edge_stats) into the first eight channels of
// every conv block's BN, rotating the kinds per layer.
void inject_edge_stats(BrnnModel& model) {
  std::int64_t layer = 0;
  for (nn::BatchNorm2d* bn : conv_block_bns(model.net())) {
    for (std::int64_t c = 0; c < std::min<std::int64_t>(bn->channels(), 8);
         ++c) {
      set_edge_stats(*bn, c, layer);
    }
    // Running statistics carry no version of their own.
    bn->gamma().bump_version();
    ++layer;
  }
}

BrnnConfig paper_at(std::int64_t image_size) {
  BrnnConfig config = BrnnConfig::paper();
  config.image_size = image_size;
  return config;
}

// A seeded model with edge statistics in every conv BN, through every
// runnable kernel x {kPacked forward, published plan} x {1, 4} threads,
// bitwise against the reference.
void expect_network_matches_reference(const BrnnConfig& config,
                                      std::int64_t batch) {
  std::unique_ptr<BrnnModel> model = make_model(config, 11);
  inject_edge_stats(*model);
  const Tensor x = images_for(config, batch, 99);
  const Tensor want = eq15::network_logits(model->net(), x);
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(want[i])) << "reference logit " << i;
  }

  KernelGuard kernel_guard;
  ThreadsGuard threads_guard;
  for (const XnorKernel* kernel : runnable_kernels()) {
    bitops::set_active_xnor_kernel(*kernel);
    for (const int threads : kThreadCounts) {
      util::set_parallel_threads(threads);
      const std::string context =
          std::string("kernel=") + kernel->name +
          " threads=" + std::to_string(threads) +
          " scaling=" + scaling_name(config.scaling) +
          " size=" + std::to_string(config.image_size) +
          " blocks=" + std::to_string(config.block_filters.size());
      expect_bit_identical(model->forward(x), want,
                           "kPacked forward, " + context);
      const std::shared_ptr<const InferencePlan> plan =
          model->published_plan();
      ASSERT_NE(plan, nullptr);
      EXPECT_STREQ(plan->kernel().name, kernel->name);
      expect_bit_identical(plan->run(x), want, "published plan, " + context);
    }
  }
}

// The plan evaluates each BN inline while packing its sign bits (the fused
// input stage); its logits match the reference on the materialized BN
// output bit for bit.
class FusionIdentityTest : public ::testing::TestWithParam<InputScaling> {};

TEST_P(FusionIdentityTest, FusedLogitsBitIdenticalAcrossKernels) {
  for (BrnnConfig config : {BrnnConfig::compact(32), paper_at(32)}) {
    config.scaling = GetParam();
    expect_network_matches_reference(config, 5);
  }
}

// Degenerate and non-finite BN statistics need no fallback path.
TEST_P(FusionIdentityTest, NonFiniteBnMatchesMaterialized) {
  BrnnConfig config = BrnnConfig::compact(32);
  config.scaling = GetParam();
  std::unique_ptr<BrnnModel> model = make_model(config, 5);
  nn::BatchNorm2d* bn = conv_block_bns(model->net())[1];
  const Tensor x = images_for(config, 4, 17);

  // A zero and a negative running variance keep the logits finite.
  bn->mutable_running_var()[2] = 0.0f;
  bn->mutable_running_var()[3] = -0.5f;
  bn->gamma().bump_version();  // statistics carry no version of their own
  const Tensor logits = model->forward(x);
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(logits[i])) << i;
  }
  expect_bit_identical(logits, eq15::network_logits(model->net(), x),
                       "zero and negative variance");

  // An infinite gamma: alpha_T poisons the scaled modes' logits with NaN
  // exactly as in the reference.
  bn->gamma().value[1] = std::numeric_limits<float>::infinity();
  bn->gamma().bump_version();
  expect_bit_identical(model->forward(x),
                       eq15::network_logits(model->net(), x),
                       "infinite gamma");
}

TEST_P(FusionIdentityTest, PackedBackendRunsPublishedPlan) {
  BrnnConfig config = BrnnConfig::compact(32);
  config.scaling = GetParam();
  std::unique_ptr<BrnnModel> model = make_model(config, 23);
  const Tensor x = images_for(config, 3, 3);
  const Tensor want = eq15::network_logits(model->net(), x);

  expect_bit_identical(model->forward(x), want, "kPacked forward");
  const std::shared_ptr<const InferencePlan> plan = model->published_plan();
  ASSERT_NE(plan, nullptr);
  expect_bit_identical(plan->run(x), want, "published plan");

  // kFloatSim runs the module chain: equal up to float rounding only.
  model->set_backend(Backend::kFloatSim);
  const Tensor float_sim = model->forward(x);
  EXPECT_LT(tensor::max_abs_diff(float_sim, want), 1e-2);
  model->set_backend(Backend::kPacked);
  expect_bit_identical(model->forward(x), want, "back on kPacked");
  EXPECT_EQ(model->published_plan(), plan) << "switching back recompiled";
}

INSTANTIATE_TEST_SUITE_P(AllScalings, FusionIdentityTest,
                         ::testing::ValuesIn(kScalings),
                         [](const auto& param_info) {
                           return scaling_name(param_info.param);
                         });

TEST(FusionIdentity, PaperConfigBitIdentical) {
  // The paper's topology at its full 128x128 clip resolution.
  for (const InputScaling scaling : kScalings) {
    BrnnConfig config = paper_at(128);
    config.scaling = scaling;
    expect_network_matches_reference(config, 2);
  }
}

// Float-sim against the same reference, on a whole network: logits within
// 1e-2 and at most one label flip in 32.

struct FloatSimRun {
  Tensor want, float_sim;
  std::vector<int> float_labels;
};

FloatSimRun run_float_sim(BrnnModel& model, const Tensor& x) {
  FloatSimRun run;
  run.want = eq15::network_logits(model.net(), x);
  model.set_backend(Backend::kFloatSim);
  run.float_sim = model.forward(x);
  run.float_labels = model.predict(x);
  model.set_backend(Backend::kPacked);
  return run;
}

void expect_logits_within_tolerance(const FloatSimRun& run) {
  EXPECT_TRUE(tensor::allclose(run.float_sim, run.want, 1e-2))
      << "max diff " << tensor::max_abs_diff(run.float_sim, run.want);
}

// Logit agreement to 1e-2 can still flip a knife-edge argmax; allow at most
// one flip in 32.
void expect_at_most_one_flip(const FloatSimRun& run) {
  const auto want_labels = tensor::argmax_rows(run.want);
  ASSERT_EQ(want_labels.size(), run.float_labels.size());
  int flips = 0;
  for (std::size_t i = 0; i < want_labels.size(); ++i) {
    flips += static_cast<int>(want_labels[i]) != run.float_labels[i] ? 1 : 0;
  }
  EXPECT_LE(flips, 1);
}

class PackedEquivalenceTest : public ::testing::TestWithParam<InputScaling> {
 protected:
  // 32 uniform noise clips through a seeded compact@32 model.
  FloatSimRun run_noise() {
    BrnnConfig config = BrnnConfig::compact(32);
    config.scaling = GetParam();
    std::unique_ptr<BrnnModel> model = make_model(config, 2);
    return run_float_sim(*model, images_for(config, 32, 3));
  }
};

TEST_P(PackedEquivalenceTest, LogitsAgreeOnRandomInputs) {
  expect_logits_within_tolerance(run_noise());
}

TEST_P(PackedEquivalenceTest, DecisionsIdentical) {
  expect_at_most_one_flip(run_noise());
}

INSTANTIATE_TEST_SUITE_P(Modes, PackedEquivalenceTest,
                         ::testing::ValuesIn(kScalings),
                         [](const auto& param_info) {
                           return scaling_name(param_info.param);
                         });

TEST(PackedEquivalence, BinaryLayoutInputs) {
  // The real use case besides noise: strictly binary {0,1} clips.
  Tensor layout({32, 1, 32, 32});
  util::Rng rng(4);
  for (std::int64_t i = 0; i < layout.numel(); ++i) {
    layout[i] = rng.bernoulli(0.3) ? 1.0f : 0.0f;
  }
  for (const InputScaling scaling : kScalings) {
    SCOPED_TRACE(scaling_name(scaling));
    BrnnConfig config = BrnnConfig::compact(32);
    config.scaling = scaling;
    std::unique_ptr<BrnnModel> model = make_model(config, 2);
    const FloatSimRun run = run_float_sim(*model, layout);
    expect_logits_within_tolerance(run);
    expect_at_most_one_flip(run);
  }
}

}  // namespace
}  // namespace hotspot::core
