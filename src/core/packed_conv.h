// Shared inner loops of the packed XNOR binary convolution.
//
// Every conv step of the inference plan (core/inference_plan.h) runs one
// aggregate, written once: the position-sliced direct binary conv, for all
// three alpha_T scalings. Its float accumulation order is pinned by the
// XnorKernel contract (kernels/xnor_kernel.h), so outputs are identical
// across scalar/AVX2/AVX-512.
#pragma once

#include <cstdint>
#include <vector>

#include "bitops/bit_matrix.h"
#include "bitops/bit_planes.h"
#include "bitops/kernels/xnor_kernel.h"
#include "tensor/conv.h"
#include "tensor/tensor.h"

namespace hotspot::core {

// Largest k*k the direct conv takes: its kernels count the mismatches of a
// channel's taps in four bit-planes, so at most 15.
inline constexpr std::int64_t kMaxDirectTaps = 15;

// Filters of the direct binary conv: the k*k weight sign bits of each
// (output channel o, input channel c) pair in bits[o * channel_stride + c],
// bit ky*kw + kx set iff weight[o, c, ky, kx] >= 0; the padding channels up
// to channel_stride (in_channels rounded up to 8) are 0.
struct DirectFilters {
  std::int64_t out_channels = 0;
  std::int64_t in_channels = 0;
  std::int64_t channel_stride = 0;
  std::int64_t taps = 0;  // kh * kw, at most kMaxDirectTaps
  std::vector<std::uint16_t> bits;
};

DirectFilters pack_direct_filters(const tensor::Tensor& weight);

// Position-sliced direct binary convolution (Eq. 15) in the style of
// lib_nn's BNNConv2dValidDirectBinary (SNIPPETS.md snippet 1). Bit j of a
// lane word is one output position (n, p), flattened over the batch, so a
// word spans samples when a plane has fewer than 64 positions. For each
// lane word and input channel, the k*k tap words are cut from the
// bit-packed sign planes (stride 1: shifted rows; stride 2: the
// column-parity layout of BitPlanes), with taps outside the image 0
// (padding -1), and shared by every filter. Per (lane word, filter) the
// kernel's direct_accumulate XORs the tap words with the filter's weight
// bits, reduces them with a carry-save adder tree to four mismatch-count
// bit-planes per channel, adds alpha_T * (k*k - 2 * mismatches) per lane in
// the canonical weighted order and scales by alpha_W.
//
// `planes` holds the sign bits of the conv input (kColumnParity when the
// stride is 2) and `alpha_w` is [Cout]. The three scalings differ only in
// the alpha they pass:
//   kPerChannel  `alpha_lanes` is the [Cin, lanes] alpha_T of
//                bitops::conv_input; no `post`.
//   kScalar      no `alpha_lanes` (unit alpha_T, so the accumulator is the
//                integer patch count); `post` is the [N,1,outH,outW] alpha
//                map of bitops::conv_input, whose flat index is the lane,
//                applied as out = (acc * alpha_W) * post.
//   kNone        neither.
// Writes [N, Cout, outH, outW] into `output`, which the caller allocates.
void direct_conv(const bitops::XnorKernel& kern,
                 const bitops::BitPlanes& planes,
                 const tensor::ConvSpec& spec, const DirectFilters& filters,
                 const tensor::Tensor* alpha_lanes,
                 const tensor::Tensor& alpha_w, const tensor::Tensor* post,
                 tensor::Tensor& output);

// Per-channel-scaled convolution over the channel-blocked layout
// (bitops::pack_patches_channel_blocked / pack_filters_channel_blocked):
// the plan no longer uses it; it stays as the subject of the bench/e2e
// bitops replay until that replay moves to direct_conv. Evaluates the
// canonical weighted order in plain loops: per output position and filter,
// acc = acc + alpha_t(n, c, p) * (kk - 2 * popcount(patch_c ^ filter_c)) over
// ascending channels from +0.0f, times alpha_w. `alpha_t` is
// [N,Cin,outH,outW]; writes [N,Cout,outH,outW] into `output`. `kern` is
// unused.
void packed_conv_per_channel(const bitops::XnorKernel& kern,
                             const bitops::BitMatrix& patches,
                             const bitops::BitMatrix& filters,
                             const tensor::Tensor& alpha_t,
                             const tensor::Tensor& alpha_w,
                             std::int64_t in_channels,
                             std::int64_t out_channels, std::int64_t kk,
                             tensor::Tensor& output);

}  // namespace hotspot::core
