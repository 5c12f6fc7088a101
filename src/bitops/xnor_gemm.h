// Binarized GEMM and the packed binary convolution primitive.
#pragma once

#include "bitops/bit_matrix.h"
#include "bitops/bit_planes.h"
#include "tensor/conv.h"

namespace hotspot::bitops {

// C[i][j] = +/-1 inner product of a.row(i) and b.row(j); a is [m,k] bits,
// b is [n,k] bits, result is [m,n] float (integer-valued).
tensor::Tensor xnor_gemm(const BitMatrix& a, const BitMatrix& b);

// Packs the im2col patches of sign(input) (padding = -1) for the given conv
// spec. Rows are output positions (n*outH*outW), columns are Cin*kh*kw bits.
BitMatrix pack_patches(const tensor::Tensor& input,
                       const tensor::ConvSpec& spec);

// Same patch assembly from pre-binarized planes. The tensor overload above
// is pack_patches(BitPlanes(input), spec); the inference plan passes the
// sign bits of its batch-norm output, evaluated inline from the raw input
// (BitPlanes(input, affine)), so no BN tensor is materialized.
BitMatrix pack_patches(const BitPlanes& planes, const tensor::ConvSpec& spec);

// Packs conv weights [Cout,Cin,kh,kw] into rows of Cin*kh*kw bits.
BitMatrix pack_filters(const tensor::Tensor& weight);

// Channel-blocked packing used by the per-channel scaling mode (Eq. 14):
// each input channel's kh*kw patch bits occupy their own 64-bit word, so a
// per-channel +/-1 dot is one XOR + popcount. Requires kh*kw <= 64.
// Rows are output positions, and row r holds Cin words.
BitMatrix pack_patches_channel_blocked(const tensor::Tensor& input,
                                       const tensor::ConvSpec& spec);
BitMatrix pack_patches_channel_blocked(const BitPlanes& planes,
                                       const tensor::ConvSpec& spec);
BitMatrix pack_filters_channel_blocked(const tensor::Tensor& weight);

// Dense binary convolution: counts[n, Cout, outH, outW] of +/-1 products
// over the whole patch (no scaling applied). Equivalent to
// conv2d(sign(input), sign(weight)) with -1 padding.
tensor::Tensor binary_conv_counts(const tensor::Tensor& input,
                                  const tensor::Tensor& weight,
                                  const tensor::ConvSpec& spec);

}  // namespace hotspot::bitops
