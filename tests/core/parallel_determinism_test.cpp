// Determinism guarantee of the threaded hot paths: every kernel wired into
// util::parallel_for must produce bit-identical outputs at any pool width,
// because partitioning depends only on (range, grain) and each index's
// arithmetic runs in a fixed order within its chunk.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bitops/bit_planes.h"
#include "bitops/scaling.h"
#include "core/brnn.h"
#include "core/packed_conv.h"
#include "support/test_support.h"
#include "tensor/conv.h"
#include "tensor/tensor_ops.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace hotspot::core {
namespace {

using tensor::Tensor;

// Thread counts the suite sweeps; 4+ exceeds CI hardware on purpose — the
// guarantee is about partitioning, not about the machine.
const std::vector<int> kThreadCounts{1, 2, 4, 7};

class ParallelDeterminismTest : public ::testing::Test {
  test_support::ThreadsGuard threads_;
};

void expect_bit_identical(const Tensor& got, const Tensor& want,
                          const char* label, int threads) {
  test_support::expect_bit_identical(
      got, want, std::string(label) + " threads=" + std::to_string(threads));
}

TEST_F(ParallelDeterminismTest, BinaryConvCountsBitIdentical) {
  util::Rng rng(12);
  const Tensor input = Tensor::uniform({3, 4, 9, 9}, rng, -1.0f, 1.0f);
  const Tensor weight = Tensor::uniform({6, 4, 3, 3}, rng, -1.0f, 1.0f);
  // The unit-alpha direct conv of the scalar and unscaled modes, at both
  // strides.
  for (const tensor::ConvSpec& spec :
       {tensor::ConvSpec{3, 3, 1, 1}, tensor::ConvSpec{3, 3, 2, 1}}) {
    for (const bitops::XnorKernel* kernel : test_support::runnable_kernels()) {
      util::set_parallel_threads(1);
      const Tensor reference =
          test_support::direct_conv_counts(*kernel, input, weight, spec);
      for (const int threads : kThreadCounts) {
        util::set_parallel_threads(threads);
        expect_bit_identical(
            test_support::direct_conv_counts(*kernel, input, weight, spec),
            reference,
            (std::string("binary conv counts ") + kernel->name + " stride " +
             std::to_string(spec.stride))
                .c_str(),
            threads);
      }
    }
  }
}

// A seeded BN affine with negative gammas, as the plan evaluates inline.
struct SeededAffine {
  SeededAffine(std::int64_t channels, util::Rng& rng) {
    for (std::int64_t c = 0; c < channels; ++c) {
      mean.push_back(static_cast<float>(rng.uniform(-0.5, 0.5)));
      inv_std.push_back(static_cast<float>(rng.uniform(0.5, 2.0)));
      gamma.push_back(static_cast<float>(rng.uniform(-1.5, 1.5)));
      beta.push_back(static_cast<float>(rng.uniform(-0.5, 0.5)));
    }
  }
  bitops::ChannelAffine affine() const {
    return {mean.data(), inv_std.data(), gamma.data(), beta.data()};
  }
  std::vector<float> mean, inv_std, gamma, beta;
};

// The conv input stage (sign bits and alpha_T of the BN output, written
// per plane or per sample under util::parallel_for with per-chunk scratch)
// and the plain box filter.
TEST_F(ParallelDeterminismTest, AlphaTBitIdenticalAcrossThreadCounts) {
  util::Rng rng(17);
  const Tensor input = Tensor::uniform({5, 7, 13, 67}, rng, -2.0f, 2.0f);
  const SeededAffine bn(7, rng);
  for (const tensor::ConvSpec& spec :
       {tensor::ConvSpec{3, 3, 1, 1}, tensor::ConvSpec{3, 3, 2, 1},
        tensor::ConvSpec{1, 1, 2, 0}}) {
    for (const bitops::InputScaling scaling :
         {bitops::InputScaling::kPerChannel, bitops::InputScaling::kScalar,
          bitops::InputScaling::kNone}) {
      const std::string label = std::string("conv_input ") +
                                bitops::to_string(scaling) + " stride " +
                                std::to_string(spec.stride);
      util::set_parallel_threads(1);
      const bitops::ConvInput reference =
          bitops::conv_input(input, bn.affine(), spec, scaling);
      for (const int threads : kThreadCounts) {
        util::set_parallel_threads(threads);
        const bitops::ConvInput got =
            bitops::conv_input(input, bn.affine(), spec, scaling);
        expect_bit_identical(got.alpha, reference.alpha, label.c_str(),
                             threads);
        for (std::int64_t plane = 0; plane < 5 * 7; ++plane) {
          for (std::int64_t x = 0; x < input.dim(3); ++x) {
            for (std::int64_t y = 0; y < input.dim(2); ++y) {
              ASSERT_EQ(got.bits.get(plane / 7, plane % 7, y, x),
                        reference.bits.get(plane / 7, plane % 7, y, x))
                  << label << " threads=" << threads << " plane " << plane;
            }
          }
        }
      }
    }
    util::set_parallel_threads(1);
    const Tensor reference = bitops::box_filter_abs_mean(input, spec);
    for (const int threads : kThreadCounts) {
      util::set_parallel_threads(threads);
      expect_bit_identical(bitops::box_filter_abs_mean(input, spec), reference,
                           "box_filter_abs_mean", threads);
    }
  }
}

// The direct binary conv at 1, 2, 4 and 7 threads under every runnable
// kernel, on the lane shapes of the Eq. 15 harness: planes under 64
// positions (lane words span and split samples), odd widths at stride 2,
// rows wider than 64 and the 1x1 stride-2 shortcut.
TEST_F(ParallelDeterminismTest, DirectConvBitIdenticalAcrossThreadCounts) {
  struct Shape {
    std::int64_t batch, cin, cout, height, width, kernel, stride;
  };
  const Shape shapes[] = {{17, 9, 8, 4, 4, 3, 2},   {64, 3, 5, 3, 3, 3, 1},
                          {3, 6, 4, 5, 5, 3, 1},    {1, 2, 3, 10, 9, 3, 2},
                          {2, 1, 16, 6, 256, 3, 2}, {17, 24, 40, 8, 8, 1, 2}};
  util::Rng rng(18);
  for (const Shape& shape : shapes) {
    const Tensor input = Tensor::uniform(
        {shape.batch, shape.cin, shape.height, shape.width}, rng, -2.0f, 2.0f);
    const Tensor weight = Tensor::uniform(
        {shape.cout, shape.cin, shape.kernel, shape.kernel}, rng, -1.0f, 1.0f);
    const SeededAffine bn(shape.cin, rng);
    const tensor::ConvSpec spec{shape.kernel, shape.kernel, shape.stride,
                                shape.kernel / 2};
    const DirectFilters filters = pack_direct_filters(weight);
    const Tensor alpha_w = bitops::weight_scales(weight);
    const std::int64_t out_h = tensor::conv_out_extent(
        shape.height, shape.kernel, shape.stride, spec.pad);
    const std::int64_t out_w = tensor::conv_out_extent(
        shape.width, shape.kernel, shape.stride, spec.pad);
    for (const bitops::XnorKernel* kernel : test_support::runnable_kernels()) {
      const auto conv = [&] {
        const bitops::ConvInput in = bitops::conv_input(
            input, bn.affine(), spec, bitops::InputScaling::kPerChannel);
        Tensor output({shape.batch, shape.cout, out_h, out_w});
        direct_conv(*kernel, in.bits, spec, filters, &in.alpha, alpha_w,
                    nullptr, output);
        return output;
      };
      util::set_parallel_threads(1);
      const Tensor reference = conv();
      for (const int threads : kThreadCounts) {
        util::set_parallel_threads(threads);
        expect_bit_identical(
            conv(), reference,
            (std::string("direct_conv ") + kernel->name + " w" +
             std::to_string(shape.width))
                .c_str(),
            threads);
      }
    }
  }
}

TEST_F(ParallelDeterminismTest, FloatConvBitIdentical) {
  util::Rng rng(13);
  const Tensor input = Tensor::uniform({2, 3, 8, 8}, rng, -1.0f, 1.0f);
  const Tensor weight = Tensor::uniform({5, 3, 3, 3}, rng, -0.5f, 0.5f);
  const Tensor bias = Tensor::uniform({5}, rng, -0.1f, 0.1f);
  const tensor::ConvSpec spec{3, 3, 1, 1};

  util::set_parallel_threads(1);
  const Tensor reference = tensor::conv2d(input, weight, &bias, spec);
  for (const int threads : kThreadCounts) {
    util::set_parallel_threads(threads);
    expect_bit_identical(tensor::conv2d(input, weight, &bias, spec),
                         reference, "conv2d", threads);
  }
}

TEST_F(ParallelDeterminismTest, BrnnForwardBitIdenticalBothBackends) {
  util::Rng rng(14);
  BrnnModel model(BrnnConfig::compact(32), rng);
  model.set_training(false);
  const Tensor images = Tensor::uniform({6, 1, 32, 32}, rng, -1.0f, 1.0f);

  for (const Backend backend : {Backend::kPacked, Backend::kFloatSim}) {
    model.set_backend(backend);
    util::set_parallel_threads(1);
    const Tensor reference = model.forward(images);
    const std::vector<int> reference_labels = model.predict(images);
    for (const int threads : kThreadCounts) {
      util::set_parallel_threads(threads);
      expect_bit_identical(model.forward(images), reference, "brnn_forward",
                           threads);
      EXPECT_EQ(model.predict(images), reference_labels)
          << "backend=" << static_cast<int>(backend)
          << " threads=" << threads;
    }
  }
}

TEST_F(ParallelDeterminismTest, TrainingStepBitIdenticalAcrossThreadCounts) {
  // One forward/backward through the float-sim path (the trainer's
  // mini-batch loop) must also be partition-independent.
  const Tensor images = [] {
    util::Rng rng(15);
    return Tensor::uniform({4, 1, 32, 32}, rng, -1.0f, 1.0f);
  }();
  auto run = [&](int threads) {
    util::set_parallel_threads(threads);
    util::Rng rng(16);
    BrnnModel model(BrnnConfig::compact(32), rng);
    model.set_training(true);
    const Tensor logits = model.forward(images);
    model.zero_grad();
    model.backward(Tensor::ones(logits.shape()));
    std::vector<float> grads;
    for (nn::Parameter* param : model.parameters()) {
      for (std::int64_t i = 0; i < param->grad.numel(); ++i) {
        grads.push_back(param->grad[i]);
      }
    }
    return grads;
  };
  const std::vector<float> reference = run(1);
  for (const int threads : {2, 4}) {
    EXPECT_EQ(run(threads), reference) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace hotspot::core
