#include "bitops/scaling.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/parallel.h"

namespace hotspot::bitops {

const char* to_string(InputScaling mode) {
  switch (mode) {
    case InputScaling::kPerChannel:
      return "per-channel";
    case InputScaling::kScalar:
      return "scalar";
    case InputScaling::kNone:
      return "none";
  }
  return "?";
}

tensor::Tensor weight_scales(const tensor::Tensor& weight) {
  HOTSPOT_CHECK_EQ(weight.rank(), 4);
  const std::int64_t cout = weight.dim(0);
  const std::int64_t n = weight.numel() / cout;
  tensor::Tensor scales({cout});
  for (std::int64_t co = 0; co < cout; ++co) {
    double total = 0.0;
    const float* filter = weight.data() + co * n;
    for (std::int64_t i = 0; i < n; ++i) {
      total += std::fabs(static_cast<double>(filter[i]));
    }
    scales[co] = static_cast<float>(total / static_cast<double>(n));
  }
  return scales;
}

namespace {

// Rows per block of the input pass: the integral image interleaves this many
// rows' prefix chains (independent double additions), and conv_input
// evaluates batch norm for this many rows at a time.
constexpr std::int64_t kRowBlock = 4;

// Dimensions of an NCHW input, or of a channel-major [C, N, H, W] one.
struct Extents {
  Extents(const tensor::Tensor& input, const tensor::ConvSpec& spec,
          bool cnhw = false)
      : channel_major(cnhw),
        n(input.dim(cnhw ? 1 : 0)),
        c(input.dim(cnhw ? 0 : 1)),
        h(input.dim(2)),
        w(input.dim(3)),
        out_h(tensor::conv_out_extent(h, spec.kernel_h, spec.stride,
                                      spec.pad)),
        out_w(tensor::conv_out_extent(w, spec.kernel_w, spec.stride,
                                      spec.pad)) {
    HOTSPOT_CHECK_EQ(input.rank(), 4);
  }

  // Index of the h x w plane of sample ni, channel ci.
  std::int64_t plane(std::int64_t ni, std::int64_t ci) const {
    return channel_major ? ci * n + ni : ni * c + ci;
  }

  bool channel_major;
  std::int64_t n, c, h, w, out_h, out_w;
};

// Integral-image box filter, one h x w plane per run(): the mean of |v| over
// every spec window (zero padding contributes 0), written out_h x out_w
// contiguously. This is the one integral-image routine: plain inputs, the
// batch-norm output of conv_input and the scalar mode's channel means all go
// through run(), so they accumulate the same double sums in the same order.
// One instance per parallel chunk holds the chunk's scratch; planes are
// independent and each is summed by one thread, so the result is the same
// at every thread count.
class BoxFilter {
 public:
  BoxFilter(const Extents& e, const tensor::ConvSpec& spec)
      : h_(e.h),
        w_(e.w),
        out_h_(e.out_h),
        out_w_(e.out_w),
        inv_area_(1.0f / static_cast<float>(spec.kernel_h * spec.kernel_w)),
        row_lo_(static_cast<std::size_t>(out_h_)),
        row_hi_(static_cast<std::size_t>(out_h_)),
        col_lo_(static_cast<std::size_t>(out_w_)),
        col_hi_(static_cast<std::size_t>(out_w_)),
        integral_(static_cast<std::size_t>((e.h + 1) * (e.w + 1)), 0.0) {
    // Window bounds clamped to the image, once per output row and column.
    for (std::int64_t oy = 0; oy < out_h_; ++oy) {
      const std::int64_t y0 = oy * spec.stride - spec.pad;
      row_lo_[oy] = std::max<std::int64_t>(0, y0);
      row_hi_[oy] = std::min(h_, y0 + spec.kernel_h);
    }
    for (std::int64_t ox = 0; ox < out_w_; ++ox) {
      const std::int64_t x0 = ox * spec.stride - spec.pad;
      col_lo_[ox] = std::max<std::int64_t>(0, x0);
      col_hi_[ox] = std::min(w_, x0 + spec.kernel_w);
    }
  }

  // rows(y, count) returns rows [y, y + count) of the plane, `w` floats
  // apart; it is called once per block of kRowBlock rows, in ascending y.
  template <typename RowsFn>
  void run(RowsFn&& rows, float* dst) {
    // S[y][x] = sum of |v| over [0,y) x [0,x); row 0 and column 0 stay
    // zero. Each block first stores its rows' prefix sums
    // P[x] = P[x-1] + |v[x]|, then adds the row above: S[y+1][x+1] =
    // S[y][x+1] + P[x].
    const std::int64_t stride = w_ + 1;
    for (std::int64_t y = 0; y < h_; y += kRowBlock) {
      const std::int64_t count = std::min(kRowBlock, h_ - y);
      const float* v = rows(y, count);
      double* block = integral_.data() + (y + 1) * stride + 1;
      if (count == kRowBlock) {
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (std::int64_t x = 0; x < w_; ++x) {
          s0 += std::fabs(static_cast<double>(v[x]));
          s1 += std::fabs(static_cast<double>(v[w_ + x]));
          s2 += std::fabs(static_cast<double>(v[2 * w_ + x]));
          s3 += std::fabs(static_cast<double>(v[3 * w_ + x]));
          block[x] = s0;
          block[stride + x] = s1;
          block[2 * stride + x] = s2;
          block[3 * stride + x] = s3;
        }
      } else {
        for (std::int64_t r = 0; r < count; ++r) {
          double sum = 0.0;
          for (std::int64_t x = 0; x < w_; ++x) {
            sum += std::fabs(static_cast<double>(v[r * w_ + x]));
            block[r * stride + x] = sum;
          }
        }
      }
      for (std::int64_t r = 0; r < count; ++r) {
        const double* above = block + (r - 1) * stride;
        double* row = block + r * stride;
        for (std::int64_t x = 0; x < w_; ++x) {
          row[x] = above[x] + row[x];
        }
      }
    }
    for (std::int64_t oy = 0; oy < out_h_; ++oy) {
      const double* top = integral_.data() + row_lo_[oy] * stride;
      const double* bottom = integral_.data() + row_hi_[oy] * stride;
      float* out = dst + oy * out_w_;
      for (std::int64_t ox = 0; ox < out_w_; ++ox) {
        const std::int64_t x0 = col_lo_[ox];
        const std::int64_t x1 = col_hi_[ox];
        const double total = bottom[x1] - top[x1] - bottom[x0] + top[x0];
        out[ox] = static_cast<float>(total) * inv_area_;
      }
    }
  }

 private:
  std::int64_t h_, w_, out_h_, out_w_;
  float inv_area_;
  std::vector<std::int64_t> row_lo_, row_hi_, col_lo_, col_hi_;
  std::vector<double> integral_;
};

// The rows of one plane of `input` as they are.
class PlainRows {
 public:
  PlainRows(const tensor::Tensor& input, const Extents& e)
      : input_(input.data()), e_(e) {}

  void select(std::int64_t ni, std::int64_t ci) {
    plane_ = input_ + e_.plane(ni, ci) * e_.h * e_.w;
  }
  const float* operator()(std::int64_t y, std::int64_t /*count*/) const {
    return plane_ + y * e_.w;
  }

 private:
  const float* input_;
  const Extents& e_;
  const float* plane_ = nullptr;
};

// The rows of one plane of bn(input): each call evaluates bn_eval once per
// element of its block into per-chunk scratch, writes the block's signs
// into `bits`, and returns the scratch for the box filter.
class AffineRows {
 public:
  AffineRows(const tensor::Tensor& input, const Extents& e,
             const ChannelAffine& affine, SignStreams& bits)
      : input_(input.data()),
        e_(e),
        affine_(affine),
        bits_(bits),
        buffer_(static_cast<std::size_t>(kRowBlock * e.w)) {}

  void select(std::int64_t ni, std::int64_t ci) {
    ni_ = ni;
    ci_ = ci;
    src_ = input_ + e_.plane(ni, ci) * e_.h * e_.w;
    mean_ = affine_.mean[ci];
    inv_std_ = affine_.inv_std[ci];
    gamma_ = affine_.gamma[ci];
    beta_ = affine_.beta[ci];
  }

  const float* operator()(std::int64_t y, std::int64_t count) {
    const float* src = src_ + y * e_.w;
    float* buffer = buffer_.data();
    for (std::int64_t i = 0; i < count * e_.w; ++i) {
      buffer[i] = bn_eval(src[i], mean_, inv_std_, gamma_, beta_);
    }
    bits_.set_rows(ci_, ni_, y, count, buffer);
    return buffer;
  }

 private:
  const float* input_;
  const Extents& e_;
  const ChannelAffine& affine_;
  SignStreams& bits_;
  std::vector<float> buffer_;
  std::int64_t ni_ = 0, ci_ = 0;
  const float* src_ = nullptr;
  float mean_ = 0.0f, inv_std_ = 0.0f, gamma_ = 0.0f, beta_ = 0.0f;
};

// Per-channel alpha_T: box filters every (n, c) plane of the rows that
// make_rows() (one source per chunk) yields into dst_of(n, c). A chunk
// takes whole units of `group` consecutive samples of one channel.
template <typename MakeRows, typename DstFn>
void per_channel_scales(const Extents& e, const tensor::ConvSpec& spec,
                        std::int64_t group, MakeRows&& make_rows,
                        DstFn&& dst_of) {
  const std::int64_t groups = (e.n + group - 1) / group;
  util::parallel_for(0, e.c * groups, /*grain=*/1, [&](std::int64_t lo,
                                                       std::int64_t hi) {
    BoxFilter box(e, spec);
    auto rows = make_rows();
    for (std::int64_t unit = lo; unit < hi; ++unit) {
      const std::int64_t ci = unit / groups;
      const std::int64_t n0 = unit % groups * group;
      for (std::int64_t ni = n0; ni < std::min(e.n, n0 + group); ++ni) {
        rows.select(ni, ci);
        box.run(rows, dst_of(ni, ci));
      }
    }
  });
}

// XNOR-Net scalar alpha_T into `out` [N,1,outH,outW]: per sample, the
// channel mean of |v| (double sums over ascending c), box filtered. A chunk
// takes whole units of `group` consecutive samples.
template <typename MakeRows>
void scalar_scales(const Extents& e, const tensor::ConvSpec& spec,
                   std::int64_t group, MakeRows&& make_rows,
                   tensor::Tensor& out) {
  util::parallel_for(0, (e.n + group - 1) / group, /*grain=*/1,
                     [&](std::int64_t lo, std::int64_t hi) {
    BoxFilter box(e, spec);
    auto rows = make_rows();
    const auto hw = static_cast<std::size_t>(e.h * e.w);
    std::vector<double> total(hw);
    std::vector<float> mean(hw);
    for (std::int64_t ni = lo * group; ni < std::min(e.n, hi * group); ++ni) {
      std::fill(total.begin(), total.end(), 0.0);
      for (std::int64_t ci = 0; ci < e.c; ++ci) {
        rows.select(ni, ci);
        for (std::int64_t y = 0; y < e.h; y += kRowBlock) {
          const std::int64_t count = std::min(kRowBlock, e.h - y);
          const float* v = rows(y, count);
          double* sum = total.data() + y * e.w;
          for (std::int64_t i = 0; i < count * e.w; ++i) {
            sum[i] += std::fabs(static_cast<double>(v[i]));
          }
        }
      }
      for (std::size_t i = 0; i < hw; ++i) {
        mean[i] = static_cast<float>(total[i] / static_cast<double>(e.c));
      }
      box.run(
          [&](std::int64_t y, std::int64_t) { return mean.data() + y * e.w; },
          out.data() + ni * e.out_h * e.out_w);
    }
  });
}

}  // namespace

tensor::Tensor box_filter_abs_mean(const tensor::Tensor& input,
                                   const tensor::ConvSpec& spec) {
  const Extents e(input, spec);
  tensor::Tensor out({e.n, e.c, e.out_h, e.out_w});
  per_channel_scales(
      e, spec, /*group=*/1, [&] { return PlainRows(input, e); },
      [&](std::int64_t ni, std::int64_t ci) {
        return out.data() + e.plane(ni, ci) * e.out_h * e.out_w;
      });
  return out;
}

tensor::Tensor input_scales_per_channel(const tensor::Tensor& input,
                                        const tensor::ConvSpec& spec) {
  return box_filter_abs_mean(input, spec);
}

tensor::Tensor input_scales_scalar(const tensor::Tensor& input,
                                   const tensor::ConvSpec& spec) {
  const Extents e(input, spec);
  tensor::Tensor out({e.n, 1, e.out_h, e.out_w});
  scalar_scales(e, spec, /*group=*/1, [&] { return PlainRows(input, e); },
                out);
  return out;
}

ConvInput conv_input(const tensor::Tensor& input, const ChannelAffine& affine,
                     const tensor::ConvSpec& spec, InputScaling scaling) {
  const Extents e(input, spec, /*channel_major=*/true);
  ConvInput result{SignStreams(e.c, e.n, e.h, e.w, spec), tensor::Tensor()};
  const std::int64_t group = result.bits.sample_group();
  const auto make_rows = [&] {
    return AffineRows(input, e, affine, result.bits);
  };
  switch (scaling) {
    case InputScaling::kPerChannel: {
      const std::int64_t positions = e.out_h * e.out_w;
      const std::int64_t lanes = result.bits.words() * 64;
      result.alpha = tensor::Tensor({e.c, lanes});  // zero-filled
      per_channel_scales(e, spec, group, make_rows,
                         [&](std::int64_t ni, std::int64_t ci) {
                           return result.alpha.data() + ci * lanes +
                                  ni * positions;
                         });
      break;
    }
    case InputScaling::kScalar:
      result.alpha = tensor::Tensor({e.n, 1, e.out_h, e.out_w});
      scalar_scales(e, spec, group, make_rows, result.alpha);
      break;
    case InputScaling::kNone: {
      const std::int64_t groups = (e.n + group - 1) / group;
      util::parallel_for(0, e.c * groups, /*grain=*/1, [&](std::int64_t lo,
                                                           std::int64_t hi) {
        AffineRows rows = make_rows();
        for (std::int64_t unit = lo; unit < hi; ++unit) {
          const std::int64_t n0 = unit % groups * group;
          for (std::int64_t ni = n0; ni < std::min(e.n, n0 + group); ++ni) {
            rows.select(ni, unit / groups);
            for (std::int64_t y = 0; y < e.h; y += kRowBlock) {
              rows(y, std::min(kRowBlock, e.h - y));
            }
          }
        }
      });
      break;
    }
  }
  return result;
}

}  // namespace hotspot::bitops
