// Scaling factors for the binarized convolution (paper Sec. 3.2 / 3.4.3).
//
// Weight side (Eq. 8):  alpha_W(filter) = ||W_filter||_1 / n.
// Input side (Eq. 14):  alpha_T(c,:,:) = |T_in(c,:,:)| convolved with the
// kh x kw box filter K (every element 1/(kh*kw)); computed once per input
// tensor instead of per sliding window, which is the paper's redundancy
// optimization.
#pragma once

#include "bitops/bit_planes.h"
#include "bitops/channel_affine.h"
#include "tensor/conv.h"
#include "tensor/tensor.h"

namespace hotspot::bitops {

// Which input scaling the binary convolution applies. kPerChannel is the
// paper's contribution; kScalar is XNOR-Net's single shared factor (channel
// mean of |T_in| before the box filter); kNone disables input scaling.
enum class InputScaling { kPerChannel, kScalar, kNone };

const char* to_string(InputScaling mode);

// Per-filter alpha_W for weight [Cout, Cin, kh, kw] -> [Cout].
tensor::Tensor weight_scales(const tensor::Tensor& weight);

// Per-channel, per-output-position alpha_T for input [N,Cin,H,W] ->
// [N,Cin,outH,outW] (Eq. 14, zero padding on |T_in|).
tensor::Tensor input_scales_per_channel(const tensor::Tensor& input,
                                        const tensor::ConvSpec& spec);

// XNOR-Net scalar variant: channel-mean of |T_in| box-filtered ->
// [N,1,outH,outW].
tensor::Tensor input_scales_scalar(const tensor::Tensor& input,
                                   const tensor::ConvSpec& spec);

// Box-filtered channel means via integral images: O(1) per output pixel
// regardless of kernel size. Each output position averages |input| over the
// kernel window (zero padding). Exactly equals
// depthwise_conv2d_shared(|input|, K, spec) for the box kernel K; used as
// the fast path inside the scale computations and validated against the
// reference in tests.
tensor::Tensor box_filter_abs_mean(const tensor::Tensor& input,
                                   const tensor::ConvSpec& spec);

// The input stage of one conv step of the inference plan (DESIGN.md §14):
// the sign bits and alpha_T of the batch-norm output y = bn(input), with
// channel c's parameters from `affine` (arrays sized to input.dim(1)).
// One pass over `input` evaluates bn_eval (channel_affine.h) once per
// element, a few rows at a time into per-chunk scratch, and feeds each
// block of rows both to the sign packer (BitPlanes::set_rows) and to the
// integral image of the routine behind input_scales_per_channel /
// input_scales_scalar, so
//   bits   equals BitPlanes(y, layout), layout kColumnParity when
//          spec.stride == 2 (what core::direct_conv reads) and kRows
//          otherwise;
//   alpha  kPerChannel: input_scales_per_channel(y, spec) in the direct
//          conv's lane layout [Cin, lanes], alpha_T(n, c, oy, ox) at row c,
//          column n*outH*outW + oy*outW + ox, with `lanes` N*outH*outW
//          rounded up to a multiple of 64 and the columns past
//          N*outH*outW zero;
//          kScalar: input_scales_scalar(y, spec), [N,1,outH,outW];
//          kNone: empty;
// bit for bit, because the same float values feed the same double sums in
// the same order, without the intermediate BN tensor.
struct ConvInput {
  BitPlanes bits;
  tensor::Tensor alpha;
};

ConvInput conv_input(const tensor::Tensor& input, const ChannelAffine& affine,
                     const tensor::ConvSpec& spec, InputScaling scaling);

}  // namespace hotspot::bitops
