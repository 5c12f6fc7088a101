#include "tensor/pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "tensor/tensor_ops.h"

namespace hotspot::tensor {
namespace {

TEST(MaxPool, SelectsMaximumAndArgmax) {
  Tensor x({1, 1, 2, 2}, {1, 9, 5, 7});
  Tensor argmax;
  const Tensor out = max_pool2d(x, PoolSpec{2, 2}, &argmax);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 9.0f);
  EXPECT_FLOAT_EQ(argmax.at4(0, 0, 0, 0), 1.0f);  // flat index 0*2+1
}

TEST(MaxPoolBackward, RoutesToArgmax) {
  Tensor x({1, 1, 2, 2}, {1, 9, 5, 7});
  Tensor argmax;
  max_pool2d(x, PoolSpec{2, 2}, &argmax);
  Tensor g({1, 1, 1, 1}, {3.0f});
  const Tensor gx =
      max_pool2d_backward(g, argmax, {1, 1, 2, 2}, PoolSpec{2, 2});
  EXPECT_FLOAT_EQ(gx[1], 3.0f);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
}

TEST(MaxPool, TiesPickFirst) {
  Tensor x({1, 1, 2, 2}, {5, 5, 5, 5});
  Tensor argmax;
  max_pool2d(x, PoolSpec{2, 2}, &argmax);
  EXPECT_FLOAT_EQ(argmax.at4(0, 0, 0, 0), 0.0f);
}

TEST(MaxPool, NonFiniteAndSignedZeroFollowStrictGreater) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // Four 2x2 windows of a 2x8 row pair: a leading NaN is kept, a later NaN
  // never wins, -0 ties +0 and keeps the first, -inf loses to any value.
  Tensor x({1, 1, 2, 8}, {nan, 1.0f, 1.0f, nan, -0.0f, 0.0f, -inf, -inf,
                          2.0f, 3.0f, 4.0f, 2.0f, 0.0f, -0.0f, -inf, -5.0f});
  Tensor argmax;
  const Tensor out = max_pool2d(x, PoolSpec{2, 2}, &argmax);
  EXPECT_TRUE(std::isnan(out[0]));
  EXPECT_FLOAT_EQ(argmax[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 4.0f);
  EXPECT_FLOAT_EQ(argmax[1], 10.0f);
  EXPECT_TRUE(out[2] == 0.0f && std::signbit(out[2]));
  EXPECT_FLOAT_EQ(argmax[2], 4.0f);
  EXPECT_FLOAT_EQ(out[3], -5.0f);
  EXPECT_FLOAT_EQ(argmax[3], 15.0f);
}

// max_pool2d in plain at4 loops: the strict > scan in y-then-x order from
// the window's first element.
Tensor reference_max_pool(const Tensor& x, const PoolSpec& spec,
                          Tensor* argmax) {
  const std::int64_t h = x.dim(2);
  const std::int64_t w = x.dim(3);
  const auto extent = [&](std::int64_t in) {
    return in < spec.window ? 1 : (in - spec.window) / spec.stride + 1;
  };
  const std::int64_t out_h = extent(h);
  const std::int64_t out_w = extent(w);
  Tensor out({x.dim(0), x.dim(1), out_h, out_w});
  *argmax = Tensor(out.shape());
  for (std::int64_t n = 0; n < x.dim(0); ++n) {
    for (std::int64_t c = 0; c < x.dim(1); ++c) {
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          const std::int64_t y0 = oy * spec.stride;
          const std::int64_t x0 = ox * spec.stride;
          float best = x.at4(n, c, y0, x0);
          std::int64_t best_index = y0 * w + x0;
          for (std::int64_t y = y0; y < std::min(y0 + spec.window, h); ++y) {
            for (std::int64_t xi = x0; xi < std::min(x0 + spec.window, w);
                 ++xi) {
              if (x.at4(n, c, y, xi) > best) {
                best = x.at4(n, c, y, xi);
                best_index = y * w + xi;
              }
            }
          }
          out.at4(n, c, oy, ox) = best;
          argmax->at4(n, c, oy, ox) = static_cast<float>(best_index);
        }
      }
    }
  }
  return out;
}

// With and without argmax, max_pool2d returns the same bits, and its argmax
// matches the reference, on inputs full of NaN, signed zeros, infinities
// and ties, at odd extents, extents below the window, and window != stride.
TEST(MaxPool, WithoutArgmaxMatchesArgmaxCall) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float edges[] = {nan, 0.0f, -0.0f, inf, -inf, 1.0f, 1.0f, -2.0f};
  struct Case {
    std::int64_t h, w;
    PoolSpec spec;
  };
  const Case cases[] = {{8, 8, {2, 2}},  {7, 9, {2, 2}}, {1, 3, {2, 2}},
                        {1, 1, {3, 3}},  {5, 5, {3, 2}}, {6, 7, {2, 3}},
                        {9, 4, {3, 1}}};
  util::Rng rng(5);
  for (const Case& tc : cases) {
    Tensor x({2, 3, tc.h, tc.w});
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x[i] = rng.uniform(0.0, 1.0) < 0.5
                 ? edges[rng.uniform_int(0, 7)]
                 : static_cast<float>(rng.uniform_int(-2, 2));
    }
    Tensor argmax;
    const Tensor with = max_pool2d(x, tc.spec, &argmax);
    const Tensor without = max_pool2d(x, tc.spec, nullptr);
    Tensor want_argmax;
    const Tensor want = reference_max_pool(x, tc.spec, &want_argmax);
    const std::string context = std::to_string(tc.h) + "x" +
                                std::to_string(tc.w) + " window " +
                                std::to_string(tc.spec.window) + " stride " +
                                std::to_string(tc.spec.stride);
    ASSERT_EQ(with.shape(), want.shape()) << context;
    ASSERT_EQ(without.shape(), want.shape()) << context;
    for (std::int64_t i = 0; i < want.numel(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(without[i]),
                std::bit_cast<std::uint32_t>(with[i]))
          << context << " at " << i;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(with[i]),
                std::bit_cast<std::uint32_t>(want[i]))
          << context << " at " << i;
      EXPECT_EQ(argmax[i], want_argmax[i]) << context << " at " << i;
    }
  }
}

TEST(GlobalAvgPool, AveragesPlane) {
  Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 10, 10, 10, 10});
  const Tensor out = global_avg_pool(x);
  EXPECT_EQ(out.rank(), 2);
  EXPECT_FLOAT_EQ(out.at2(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(out.at2(0, 1), 10.0f);
}

TEST(GlobalAvgPoolBackward, UniformShare) {
  Tensor g({1, 1}, {8.0f});
  const Tensor gx = global_avg_pool_backward(g, {1, 1, 2, 2});
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(gx[i], 2.0f);
  }
}

TEST(Pools, StrideSmallerThanWindow) {
  util::Rng rng(1);
  const Tensor x = Tensor::normal({1, 1, 5, 5}, rng, 0.0f, 1.0f);
  const Tensor out = max_pool2d(x, PoolSpec{3, 2}, nullptr);
  EXPECT_EQ(out.dim(2), 2);
  EXPECT_EQ(out.dim(3), 2);
  // Overlapping 3x3 windows at stride 2: each output is its window's max.
  for (std::int64_t oy = 0; oy < 2; ++oy) {
    for (std::int64_t ox = 0; ox < 2; ++ox) {
      float expected = x.at4(0, 0, oy * 2, ox * 2);
      for (std::int64_t y = oy * 2; y < oy * 2 + 3; ++y) {
        for (std::int64_t xi = ox * 2; xi < ox * 2 + 3; ++xi) {
          expected = std::max(expected, x.at4(0, 0, y, xi));
        }
      }
      EXPECT_EQ(out.at4(0, 0, oy, ox), expected);
    }
  }
}

}  // namespace
}  // namespace hotspot::tensor
