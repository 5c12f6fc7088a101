// Scaling factors for the binarized convolution (paper Sec. 3.2 / 3.4.3).
//
// Weight side (Eq. 8):  alpha_W(filter) = ||W_filter||_1 / n.
// Input side (Eq. 14):  alpha_T(c,:,:) = |T_in(c,:,:)| convolved with the
// kh x kw box filter K (every element 1/(kh*kw)); computed once per input
// tensor instead of per sliding window, which is the paper's redundancy
// optimization.
#pragma once

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

// alpha_T of the batch-norm output, evaluated inline from the BN input
// (affine_eval per element, channel_affine.h): equals
// input_scales_per_channel(bn(input), spec) bit for bit, because the same
// float values feed the same double accumulation, without the intermediate
// tensor.
tensor::Tensor input_scales_per_channel_affine(const tensor::Tensor& input,
                                               const tensor::ConvSpec& spec,
                                               const ChannelAffine& affine);

// Scalar-mode counterpart of the above (channel mean of |bn(input)| box
// filtered): equals input_scales_scalar(bn(input), spec).
tensor::Tensor input_scales_scalar_affine(const tensor::Tensor& input,
                                          const tensor::ConvSpec& spec,
                                          const ChannelAffine& affine);

// Box-filtered channel means via integral images: O(1) per output pixel
// regardless of kernel size. Each output position averages |input| over the
// kernel window (zero padding). Exactly equals
// depthwise_conv2d_shared(|input|, K, spec) for the box kernel K; used as
// the fast path inside the scale computations and validated against the
// reference in tests.
tensor::Tensor box_filter_abs_mean(const tensor::Tensor& input,
                                   const tensor::ConvSpec& spec);

}  // namespace hotspot::bitops
