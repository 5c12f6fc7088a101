// Channel-blocked patch and filter packers, used only by the bench/e2e
// bitops replay (with core::packed_conv_per_channel); the inference plan
// runs core::direct_conv.
#pragma once

#include "bitops/bit_matrix.h"
#include "tensor/conv.h"

namespace hotspot::bitops {

// Channel-blocked packing for per-channel alpha_T (Eq. 14): each input
// channel's kh*kw patch bits occupy their own 64-bit word, so a per-channel
// +/-1 dot is one XOR + popcount. Requires kh*kw <= 64.
// Rows are output positions, and row r holds Cin words.
BitMatrix pack_patches_channel_blocked(const tensor::Tensor& input,
                                       const tensor::ConvSpec& spec);
BitMatrix pack_filters_channel_blocked(const tensor::Tensor& weight);

}  // namespace hotspot::bitops
