// Shared inner loops of the packed XNOR binary convolution.
//
// Every conv step of the inference plan (core/inference_plan.h) runs one
// aggregate, written once: the position-sliced direct binary conv, for both
// alpha_T scalings. Its float accumulation order is pinned by the
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
// lib_nn's BNNConv2dValidDirectBinary (SNIPPETS.md snippet 1), for "same"
// convs (bitops::is_same_conv). Bit j of a lane word is one output position
// (n, p), flattened over the batch, so a word spans samples when a plane
// has fewer than 64 positions. The sign streams of the input share that
// lane order, so for each lane word, tap and input channel the tap word is
// one shift-and-mask of a stream: the stream of the tap's stride phase,
// shifted by the tap's offset on the output grid, masked to the lanes whose
// input lies inside the image (taps outside are 0, padding -1). The tap
// words are shared by every filter. Per (lane word, filter) the kernel's
// direct_accumulate XORs them with the filter's weight bits, reduces them
// with a carry-save adder tree to four mismatch-count bit-planes per
// channel, adds alpha_T * (k*k - 2 * mismatches) per lane in the canonical
// weighted order and scales by alpha_W.
//
// `bits` are the sign streams of the conv input (bitops::conv_input) and
// `alpha_w` is [Cout]. The two scalings differ only in the alpha they
// pass:
//   kPerChannel  `alpha_lanes` is the [Cin, lanes] alpha_T of
//                bitops::conv_input; no `post`.
//   kScalar      no `alpha_lanes` (unit alpha_T, so the accumulator is the
//                integer patch count); `post` is the [N,1,outH,outW] alpha
//                map of bitops::conv_input, whose flat index is the lane,
//                applied as out = (acc * alpha_W) * post.
// With neither, out is the integer patch count times alpha_W.
// Writes the channel-major [Cout, N, outH, outW] into `output`, which the
// caller allocates: row o is output channel o in lane order, so each lane
// word's results land in place.
void direct_conv(const bitops::XnorKernel& kern,
                 const bitops::SignStreams& bits,
                 const tensor::ConvSpec& spec, const DirectFilters& filters,
                 const tensor::Tensor* alpha_lanes,
                 const tensor::Tensor& alpha_w, const tensor::Tensor* post,
                 tensor::Tensor& output);

// The same conv over lane words [first_word, end_word) into caller memory:
// lane 64g + j of output channel o lands at output[o * row_stride +
// 64 * (g - first_word) + j], and only the batch's live lanes are written.
// `alpha_lanes` (or null) and `post` (or null) are the tensors above, read
// at their global lane index; `alpha_w` holds Cout floats. The inference
// plan runs the stem a tile of samples at a time this way.
void direct_conv(const bitops::XnorKernel& kern,
                 const bitops::SignStreams& bits,
                 const tensor::ConvSpec& spec, const DirectFilters& filters,
                 const float* alpha_lanes, const float* alpha_w,
                 const float* post, std::int64_t first_word,
                 std::int64_t end_word, float* output,
                 std::int64_t row_stride);

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
