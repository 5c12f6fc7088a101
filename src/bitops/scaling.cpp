#include "bitops/scaling.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "bitops/box_sum.h"
#include "util/parallel.h"

namespace hotspot::bitops {

const char* to_string(InputScaling mode) {
  switch (mode) {
    case InputScaling::kPerChannel:
      return "per-channel";
    case InputScaling::kScalar:
      return "scalar";
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

// Scratch per parallel chunk of the input stage: tiles hold whole groups of
// samples (or planes) and about this many bytes, so the scratch does not
// grow with the batch.
constexpr std::int64_t kTileBytes = 64 * 1024;

// Items per tile: whole multiples of `group`, about kTileBytes at
// `item_bytes` each, no more than `items` rounded up to the group, and at
// least one group (an empty batch has no tiles).
std::int64_t tile_items(std::int64_t item_bytes, std::int64_t group,
                        std::int64_t items) {
  const std::int64_t groups =
      std::max<std::int64_t>(1, kTileBytes / (item_bytes * group));
  return std::clamp<std::int64_t>((items + group - 1) / group, 1, groups) *
         group;
}

// Units per parallel chunk: at most kChunks chunks per call, so each call
// sets up per-chunk scratch a few times rather than once per unit.
constexpr std::int64_t kChunks = 16;

std::int64_t chunk_grain(std::int64_t units) {
  return std::max<std::int64_t>(1, (units + kChunks - 1) / kChunks);
}

// Scratch the chunk overwrites before reading.
template <typename T>
std::unique_ptr<T[]> scratch(std::int64_t count) {
  return std::make_unique_for_overwrite<T[]>(static_cast<std::size_t>(count));
}

// The channel means of |v| at `count` positions: mean(i) = float(sum over
// ascending c of double(|v_c(i)|) / C), with channel c's values at
// values(c).
template <typename ValuesFn>
void channel_means(std::int64_t channels, std::int64_t count,
                   ValuesFn&& values, double* total, float* means) {
  std::fill(total, total + count, 0.0);
  for (std::int64_t ci = 0; ci < channels; ++ci) {
    const float* v = values(ci);
    for (std::int64_t i = 0; i < count; ++i) {
      total[i] += std::fabs(static_cast<double>(v[i]));
    }
  }
  for (std::int64_t i = 0; i < count; ++i) {
    means[i] = static_cast<float>(total[i] / static_cast<double>(channels));
  }
}

// Copies |v| of `count` consecutive h x w planes into the box rows.
void fill_box(BoxSum& box, const float* v, std::int64_t count,
              std::int64_t h, std::int64_t w) {
  for (std::int64_t q = 0; q < count; ++q) {
    for (std::int64_t y = 0; y < h; ++y, v += w) {
      float* row = box.row(q, y);
      for (std::int64_t x = 0; x < w; ++x) {
        row[x] = std::fabs(v[x]);
      }
    }
  }
}

}  // namespace

tensor::Tensor input_scales_per_channel(const tensor::Tensor& input,
                                        const tensor::ConvSpec& spec) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  // Every (n, c) plane is independent and the output keeps their order.
  const std::int64_t planes = input.dim(0) * input.dim(1);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  const std::int64_t tile =
      tile_items(BoxSum::bytes_per_plane(h, w, spec), 1, planes);
  const std::int64_t out_h =
      tensor::conv_out_extent(h, spec.kernel_h, spec.stride, spec.pad);
  const std::int64_t out_w =
      tensor::conv_out_extent(w, spec.kernel_w, spec.stride, spec.pad);
  const std::int64_t positions = out_h * out_w;
  tensor::Tensor out({input.dim(0), input.dim(1), out_h, out_w});
  const std::int64_t tiles = (planes + tile - 1) / tile;
  util::parallel_for(0, tiles, chunk_grain(tiles), [&](std::int64_t lo,
                                                       std::int64_t hi) {
    BoxSum box(h, w, spec, tile);
    for (std::int64_t t = lo; t < hi; ++t) {
      const std::int64_t p0 = t * tile;
      const std::int64_t count = std::min(tile, planes - p0);
      fill_box(box, input.data() + p0 * h * w, count, h, w);
      box.run(count, out.data() + p0 * positions);
    }
  });
  return out;
}

tensor::Tensor input_scales_scalar(const tensor::Tensor& input,
                                   const tensor::ConvSpec& spec) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  const std::int64_t n = input.dim(0);
  const std::int64_t c = input.dim(1);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  const std::int64_t hw = h * w;
  const std::int64_t out_h =
      tensor::conv_out_extent(h, spec.kernel_h, spec.stride, spec.pad);
  const std::int64_t out_w =
      tensor::conv_out_extent(w, spec.kernel_w, spec.stride, spec.pad);
  const std::int64_t positions = out_h * out_w;
  tensor::Tensor out({n, 1, out_h, out_w});
  // One sample at a time: its channel planes are contiguous.
  util::parallel_for(0, n, chunk_grain(n), [&](std::int64_t lo,
                                               std::int64_t hi) {
    BoxSum box(h, w, spec, 1);
    const auto total = scratch<double>(hw);
    const auto means = scratch<float>(hw);
    for (std::int64_t ni = lo; ni < hi; ++ni) {
      channel_means(
          c, hw,
          [&](std::int64_t ci) { return input.data() + (ni * c + ci) * hw; },
          total.get(), means.get());
      fill_box(box, means.get(), 1, h, w);
      box.run(1, out.data() + ni * positions);
    }
  });
  return out;
}

ConvInput conv_input(const tensor::Tensor& input, const ChannelAffine& affine,
                     const tensor::ConvSpec& spec, InputScaling scaling) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  ConvInput result{SignStreams(input.dim(0), input.dim(1), input.dim(2),
                               input.dim(3), spec),
                   tensor::Tensor()};
  if (scaling == InputScaling::kPerChannel) {
    result.alpha = tensor::Tensor({input.dim(0), result.bits.words() * 64});
  } else {
    result.alpha = tensor::Tensor({input.dim(1), 1,
                                   result.bits.out_height(),
                                   result.bits.out_width()});
  }
  conv_input(input.data(), affine, spec, scaling, result.bits,
             result.alpha.data());
  return result;
}

void conv_input(const float* input, const ChannelAffine& affine,
                const tensor::ConvSpec& spec, InputScaling scaling,
                SignStreams& bits, float* alpha_out) {
  HOTSPOT_CHECK(spec.stride == bits.stride() && spec.pad == bits.pad())
      << "streams laid out for another conv";
  const std::int64_t c = bits.channels();
  const std::int64_t n = bits.batch();
  const std::int64_t h = bits.height();
  const std::int64_t w = bits.width();
  const std::int64_t out_h = bits.out_height();
  const std::int64_t out_w = bits.out_width();
  const std::int64_t positions = out_h * out_w;
  // The values of one sample set_samples reads: one block of outH x outW
  // lanes per stored phase. At stride 1 that is the plane itself; a 1x1
  // stride-2 conv reads only phase (0, 0), so the stage evaluates only
  // those inputs, and alpha_T there is the box sum of a 1x1 window, the
  // one term |y| (times 1/1); other stride-2 convs split each row's even
  // and odd columns into the phases of its row's parity.
  const std::int64_t lanes_per_sample = bits.phases() * positions;
  const bool phase_zero = spec.stride == 2 && bits.phases() == 1;
  const bool split = bits.phases() == 4;
  const bool boxed = !phase_zero;
  const bool scalar = scaling == InputScaling::kScalar;
  // The scalar mode's channel means are taken in plane order: a stride-2
  // split also keeps y in plane order for them.
  const std::int64_t mean_floats = phase_zero ? positions : h * w;
  std::int64_t sample_bytes =
      lanes_per_sample * static_cast<std::int64_t>(sizeof(float));
  if (boxed) {
    sample_bytes += BoxSum::bytes_per_plane(h, w, spec);
  }
  if (scalar) {
    sample_bytes += mean_floats * static_cast<std::int64_t>(
                                      sizeof(double) + sizeof(float) +
                                      (split ? sizeof(float) : 0));
  }
  // Tiles of whole sample groups, so no two chunks write one stream word.
  const std::int64_t tile = tile_items(sample_bytes, bits.sample_group(), n);
  const std::int64_t tiles = (n + tile - 1) / tile;

  // y = bn(x) at the inputs the conv reads of channel ci, samples [n0, n0 +
  // count): into `lanes` in set_samples' layout (a lane whose input lies
  // outside the image gets -1, sign bit 0); with `box`, |y| into its rows;
  // with `plane` (a stride-2 split only), y in plane order; with `alpha`
  // (phase (0, 0) only), |y| in lane order.
  const auto evaluate = [&](std::int64_t ci, std::int64_t n0,
                            std::int64_t count, float* lanes, BoxSum* box,
                            float* plane, float* alpha) {
    const float* src = input + (ci * n + n0) * h * w;
    const float mean = affine.mean[ci];
    const float inv_std = affine.inv_std[ci];
    const float gamma = affine.gamma[ci];
    const float beta = affine.beta[ci];
    const auto bn = [&](float x) {
      return bn_eval(x, mean, inv_std, gamma, beta);
    };
    if (phase_zero) {
      for (std::int64_t q = 0; q < count; ++q) {
        for (std::int64_t oy = 0; oy < out_h; ++oy, lanes += out_w) {
          const float* row = src + (q * h + 2 * oy) * w;
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const float v = bn(row[2 * ox]);
            lanes[ox] = v;
            if (alpha != nullptr) {
              alpha[ox] = std::fabs(v);
            }
          }
          if (alpha != nullptr) {
            alpha += out_w;
          }
        }
      }
    } else if (split) {
      const std::int64_t block = count * positions;
      for (std::int64_t q = 0; q < count; ++q) {
        for (std::int64_t iy = 0; iy < h; ++iy, src += w) {
          float* even =
              lanes + (iy & 1) * 2 * block + (q * out_h + iy / 2) * out_w;
          float* odd = even + block;
          float* abs_row = box != nullptr ? box->row(q, iy) : nullptr;
          float* plane_row = plane != nullptr ? plane + (q * h + iy) * w
                                              : nullptr;
          for (std::int64_t ox = 0; ox < w / 2; ++ox) {
            const float v0 = bn(src[2 * ox]);
            const float v1 = bn(src[2 * ox + 1]);
            even[ox] = v0;
            odd[ox] = v1;
            if (abs_row != nullptr) {
              abs_row[2 * ox] = std::fabs(v0);
              abs_row[2 * ox + 1] = std::fabs(v1);
            }
            if (plane_row != nullptr) {
              plane_row[2 * ox] = v0;
              plane_row[2 * ox + 1] = v1;
            }
          }
          if (w & 1) {  // the last column is even; its odd lane has no input
            const float v = bn(src[w - 1]);
            even[out_w - 1] = v;
            odd[out_w - 1] = -1.0f;
            if (abs_row != nullptr) {
              abs_row[w - 1] = std::fabs(v);
            }
            if (plane_row != nullptr) {
              plane_row[w - 1] = v;
            }
          }
        }
        if (h & 1) {  // the odd-row phases' last output row has no input
          float* last = lanes + 2 * block + (q * out_h + out_h - 1) * out_w;
          std::fill(last, last + out_w, -1.0f);
          std::fill(last + block, last + block + out_w, -1.0f);
        }
      }
    } else if (box != nullptr) {
      for (std::int64_t q = 0; q < count; ++q) {
        for (std::int64_t iy = 0; iy < h; ++iy, src += w, lanes += w) {
          float* abs_row = box->row(q, iy);
          for (std::int64_t x = 0; x < w; ++x) {
            const float v = bn(src[x]);
            lanes[x] = v;
            abs_row[x] = std::fabs(v);
          }
        }
      }
    } else {
      for (std::int64_t i = 0; i < count * h * w; ++i) {
        lanes[i] = bn(src[i]);
      }
    }
  };

  if (!scalar) {
    // kPerChannel: one unit per (channel, tile).
    const std::int64_t lane_count = bits.words() * 64;
    // The lanes past the batch, which the conv's last word reads.
    for (std::int64_t ci = 0; ci < c; ++ci) {
      std::fill(alpha_out + ci * lane_count + bits.lanes(),
                alpha_out + (ci + 1) * lane_count, 0.0f);
    }
    util::parallel_for(0, c * tiles, chunk_grain(c * tiles),
                       [&](std::int64_t lo, std::int64_t hi) {
      const auto lanes = scratch<float>(tile * lanes_per_sample);
      std::optional<BoxSum> box;
      if (boxed) {
        box.emplace(h, w, spec, tile);
      }
      for (std::int64_t unit = lo; unit < hi; ++unit) {
        const std::int64_t ci = unit / tiles;
        const std::int64_t n0 = unit % tiles * tile;
        const std::int64_t count = std::min(tile, n - n0);
        float* alpha = alpha_out + ci * lane_count + n0 * positions;
        evaluate(ci, n0, count, lanes.get(), box ? &*box : nullptr, nullptr,
                 box ? nullptr : alpha);
        bits.set_samples(ci, n0, count, lanes.get());
        if (box) {
          box->run(count, alpha);
        }
      }
    });
    return;
  }

  // kScalar: one unit per tile, over every channel.
  util::parallel_for(0, tiles, chunk_grain(tiles), [&](std::int64_t lo,
                                                       std::int64_t hi) {
    const auto lanes = scratch<float>(tile * lanes_per_sample);
    const auto plane = scratch<float>(split ? tile * mean_floats : 0);
    const auto total = scratch<double>(tile * mean_floats);
    const auto means = scratch<float>(tile * mean_floats);
    std::optional<BoxSum> box;
    if (boxed) {
      box.emplace(h, w, spec, tile);
    }
    for (std::int64_t t = lo; t < hi; ++t) {
      const std::int64_t n0 = t * tile;
      const std::int64_t count = std::min(tile, n - n0);
      channel_means(
          c, count * mean_floats,
          [&](std::int64_t ci) {
            evaluate(ci, n0, count, lanes.get(), nullptr,
                     split ? plane.get() : nullptr, nullptr);
            bits.set_samples(ci, n0, count, lanes.get());
            return split ? plane.get() : lanes.get();
          },
          total.get(), means.get());
      float* alpha = alpha_out + n0 * positions;
      if (box) {
        fill_box(*box, means.get(), count, h, w);
        box->run(count, alpha);
      } else {
        std::copy(means.get(), means.get() + count * positions, alpha);
      }
    }
  });
}

}  // namespace hotspot::bitops
