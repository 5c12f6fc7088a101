// Scaling factors for the binarized convolution (paper Sec. 3.2 / 3.4.3).
//
// Weight side (Eq. 8):  alpha_W(filter) = ||W_filter||_1 / n.
// Input side (Eq. 14):  alpha_T(c,:,:) = |T_in(c,:,:)| convolved with the
// kh x kw box filter K (every element 1/(kh*kw)); computed once per input
// tensor instead of per sliding window, which is the paper's redundancy
// optimization, and only at the conv's output positions. The one routine
// behind every alpha_T, with its float summation order, is BoxSum
// (box_sum.h).
#pragma once

#include "bitops/bit_planes.h"
#include "bitops/channel_affine.h"
#include "tensor/conv.h"
#include "tensor/tensor.h"

namespace hotspot::bitops {

// Which input scaling the binary convolution applies. kPerChannel is the
// paper's contribution; kScalar is XNOR-Net's single shared factor (channel
// mean of |T_in| before the box filter).
enum class InputScaling { kPerChannel, kScalar };

const char* to_string(InputScaling mode);

// Per-filter alpha_W for weight [Cout, Cin, kh, kw] -> [Cout].
tensor::Tensor weight_scales(const tensor::Tensor& weight);

// Per-channel, per-output-position alpha_T for input [N,Cin,H,W] ->
// [N,Cin,outH,outW] (Eq. 14, zero padding on |T_in|), in BoxSum's order.
tensor::Tensor input_scales_per_channel(const tensor::Tensor& input,
                                        const tensor::ConvSpec& spec);

// XNOR-Net scalar variant -> [N,1,outH,outW]: per sample and position the
// channel mean of |T_in|, float(sum over ascending c of double(|T_in|) /
// Cin), box summed in BoxSum's order.
tensor::Tensor input_scales_scalar(const tensor::Tensor& input,
                                   const tensor::ConvSpec& spec);

// The input stage of one conv step of the inference plan (DESIGN.md §14):
// the sign bits and alpha_T of the batch-norm output y = bn(input) of a
// channel-major input [C, N, H, W], with channel c's parameters from
// `affine` (arrays sized to input.dim(0)), for a "same" conv
// (is_same_conv(spec)). It walks each channel's contiguous [N, H, W] slab a
// tile of whole SignStreams::sample_group() units at a time (about 64 KB of
// per-chunk scratch, whatever the batch), evaluates bn_eval once per
// element it reads into the tile, stores the tile's sign words
// (SignStreams::set_samples) and box sums |y| at the output positions, so
//   bits   holds sign(y) in the direct conv's lane order (SignStreams);
//   alpha  kPerChannel: input_scales_per_channel(y, spec) of the NCHW
//          y in the direct conv's lane layout [C, lanes],
//          alpha_T(n, c, oy, ox) at row c, column n*outH*outW + oy*outW +
//          ox, with `lanes` N*outH*outW rounded up to a multiple of 64 and
//          the columns past N*outH*outW zero;
//          kScalar: input_scales_scalar(y, spec), [N,1,outH,outW], whose
//          flat index is the lane;
// bit for bit, because the same float values feed the same sums in the
// same order, without the intermediate BN tensor. A 1x1 stride-2 conv
// reads only the phase-(0, 0) inputs, so the stage evaluates only those.
// Parallel chunks own whole tiles, so no two of them write one stream word.
struct ConvInput {
  SignStreams bits;
  tensor::Tensor alpha;
};

ConvInput conv_input(const tensor::Tensor& input, const ChannelAffine& affine,
                     const tensor::ConvSpec& spec, InputScaling scaling);

// The same stage into caller memory, for the inference plan's arena: the
// input is the channel-major [C, N, H, W] of `bits`' shape at `input`,
// `bits` may be streams over caller storage, and `alpha` has room for
// ConvInput::alpha's floats in its layout. Nothing needs zeroing
// beforehand: the stage stores every lane word and every alpha float, the
// per-channel lanes past N*outH*outW included.
void conv_input(const float* input, const ChannelAffine& affine,
                const tensor::ConvSpec& spec, InputScaling scaling,
                SignStreams& bits, float* alpha);

}  // namespace hotspot::bitops
