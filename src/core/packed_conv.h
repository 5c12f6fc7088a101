// Shared inner loops of the packed XNOR-popcount convolution.
//
// Every conv step of the inference plan (core/inference_plan.h) reduces to
// these two routines, so each aggregate stage is written once. The float
// accumulation order inside is pinned by the XnorKernel contract
// (kernels/xnor_kernel.h), so outputs are identical across
// scalar/AVX2/AVX-512.
#pragma once

#include "bitops/bit_matrix.h"
#include "bitops/kernels/xnor_kernel.h"
#include "tensor/tensor.h"

namespace hotspot::core {

// Per-channel-scaled packed convolution (Eq. 14/15): for every output
// position, gathers that position's per-channel alpha_T scales and runs the
// kernel's weighted_sum(_x4) across the channel-blocked patch/filter rows,
// then applies the alpha_W epilogue. `patches` is the channel-blocked
// layout (one word per input channel), `alpha_t` is [N,Cin,outH,outW],
// `alpha_w` is [Cout]. Writes [N,Cout,outH,outW] into `output`, which the
// caller allocates.
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
