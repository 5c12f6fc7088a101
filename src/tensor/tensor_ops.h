// Elementwise, linear-algebra, and reduction operations on Tensor.
//
// These are the reference (full-precision) kernels. The binarized fast path
// lives in src/bitops and is validated against these in tests.
#pragma once

#include "tensor/tensor.h"

namespace hotspot::tensor {

// ---- elementwise ----------------------------------------------------------

// c = a + b (shapes must match).
Tensor add(const Tensor& a, const Tensor& b);
// c = a - b.
Tensor sub(const Tensor& a, const Tensor& b);
// c = a * b (Hadamard).
Tensor mul(const Tensor& a, const Tensor& b);
// c = a * scalar.
Tensor scale(const Tensor& a, float factor);
// In-place a += b.
void add_inplace(Tensor& a, const Tensor& b);
// |a| elementwise.
Tensor abs(const Tensor& a);
// sign(a) in {-1, +1} by the packed paths' bit rule (a >= 0): sign(±0) is
// +1 so outputs stay binary (XNOR-Net convention), and NaN is -1.
Tensor sign(const Tensor& a);

// ---- norms and comparisons -------------------------------------------------

// L1 norm of all elements.
double l1_norm(const Tensor& a);
// L2 norm of all elements.
double l2_norm(const Tensor& a);
// max_i |a[i] - b[i]|; shapes must match.
double max_abs_diff(const Tensor& a, const Tensor& b);
// True when all |a[i]-b[i]| <= tolerance.
bool allclose(const Tensor& a, const Tensor& b, double tolerance);

// ---- matmul ----------------------------------------------------------------

// [m,k] x [k,n] -> [m,n].
Tensor matmul(const Tensor& a, const Tensor& b);
// Transpose of a rank-2 tensor.
Tensor transpose2d(const Tensor& a);
// [A, B, H, W] -> [B, A, H, W]: NCHW to the channel-major [C, N, H, W] the
// inference plan's conv steps use, and back.
Tensor swap_leading_axes(const Tensor& a);

// ---- reductions over axes ---------------------------------------------------

// Per-channel mean of an NCHW tensor -> [C].
Tensor channel_mean(const Tensor& nchw);
// Per-channel (biased) variance of an NCHW tensor given its mean -> [C].
Tensor channel_variance(const Tensor& nchw, const Tensor& mean);
// argmax along the last axis of a rank-2 tensor -> vector of column indices.
std::vector<std::int64_t> argmax_rows(const Tensor& logits);

// ---- softmax / losses -------------------------------------------------------

// Row-wise softmax of a rank-2 tensor.
Tensor softmax_rows(const Tensor& logits);
// Mean softmax cross entropy between logits [n, k] and target distributions
// [n, k]; also returns d(loss)/d(logits) in `grad` when non-null.
double softmax_cross_entropy(const Tensor& logits, const Tensor& targets,
                             Tensor* grad);

}  // namespace hotspot::tensor
