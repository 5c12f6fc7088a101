// Shared inner loops of the packed XNOR-popcount convolution.
//
// Every conv step of the inference plan (core/inference_plan.h) reduces to
// one of two aggregates, each written once: the position-sliced direct
// binary conv for per-channel alpha_T (kPerChannel), and the dense
// XNOR-GEMM epilogue for the scalar and unscaled modes. The float
// accumulation order of the direct conv is pinned by the XnorKernel
// contract (kernels/xnor_kernel.h), so outputs are identical across
// scalar/AVX2/AVX-512.
#pragma once

#include <cstdint>
#include <vector>

#include "bitops/bit_matrix.h"
#include "bitops/bit_planes.h"
#include "bitops/kernels/xnor_kernel.h"
#include "tensor/conv.h"
#include "tensor/tensor.h"

namespace hotspot::core {

// Filters of the direct binary conv: the k*k weight sign bits of each
// (output channel o, input channel c) pair in bits[o * channel_stride + c],
// bit ky*kw + kx set iff weight[o, c, ky, kx] >= 0; the padding channels up
// to channel_stride (in_channels rounded up to 8) are 0.
struct DirectFilters {
  std::int64_t out_channels = 0;
  std::int64_t in_channels = 0;
  std::int64_t channel_stride = 0;
  std::int64_t taps = 0;  // kh * kw, at most 15
  std::vector<std::uint16_t> bits;
};

DirectFilters pack_direct_filters(const tensor::Tensor& weight);

// Position-sliced direct binary convolution (Eq. 14/15) for per-channel
// alpha_T, in the style of lib_nn's BNNConv2dValidDirectBinary (SNIPPETS.md
// snippet 1). Bit j of a lane word is one output position (n, p), flattened
// over the batch, so a word spans samples when a plane has fewer than 64
// positions. For each lane word and input channel, the k*k tap words are
// cut from the bit-packed sign planes (stride 1: shifted rows; stride 2:
// the column-parity layout of BitPlanes), with taps outside the image 0
// (padding -1), and shared by every filter. Per (lane word, filter) the
// kernel's direct_accumulate XORs the tap words with the filter's weight
// bits, reduces them with a carry-save adder tree to four mismatch-count
// bit-planes per channel, adds alpha_T * (k*k - 2 * mismatches) per lane in
// the canonical weighted order and scales by alpha_W.
//
// `planes` holds the sign bits of the conv input (kColumnParity when the
// stride is 2), `alpha_lanes` is the [Cin, lanes] alpha_T of
// bitops::input_scales_per_channel_affine_lanes, `alpha_w` is [Cout].
// Writes [N, Cout, outH, outW] into `output`, which the caller allocates.
void direct_conv(const bitops::XnorKernel& kern,
                 const bitops::BitPlanes& planes,
                 const tensor::ConvSpec& spec, const DirectFilters& filters,
                 const tensor::Tensor& alpha_lanes,
                 const tensor::Tensor& alpha_w, tensor::Tensor& output);

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

// Epilogue of the dense-layout path: scatters GEMM counts
// [N*positions, Cout] into NCHW and applies dst = count * alpha_w[co] *
// post, where post is the scalar-mode alpha map [N,1,outH,outW] or 1
// (pass post_alpha = nullptr). kNone callers pass nullptr.
void packed_conv_epilogue(const tensor::Tensor& counts,
                          const tensor::Tensor& alpha_w,
                          const tensor::Tensor* post_alpha,
                          std::int64_t out_channels, tensor::Tensor& output);

}  // namespace hotspot::core
