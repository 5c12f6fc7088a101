// Per-channel inference-mode batch-norm affine (DESIGN.md §14).
//
// The one definition of BatchNorm2d's eval-forward expression
//   y = gamma[c] * ((x - mean[c]) * inv_std[c]) + beta[c]
// in the layer's float op order (two roundings for xhat, two more for the
// affine). The inference plan evaluates it inline wherever it consumes a BN
// output — the sign bits and alpha_T scales of every conv input
// (bitops::conv_input in scaling.h) and the head BN — so the bits and scales
// equal those of the materialized BN output for every input and every
// statistic: zero variance, gamma = 0, overflow, denormals and non-finite
// values included, with no special cases.
#pragma once

#include <cstdint>

namespace hotspot::bitops {

inline float bn_eval(float x, float mean, float inv_std, float gamma,
                     float beta) {
  const float xhat = (x - mean) * inv_std;
  return gamma * xhat + beta;
}

// Per-channel parameters; `inv_std` must be the layer's own inference
// factor (BatchNorm2d::inference_inv_std()). Arrays are sized to the
// channel count and must stay valid for the call they are passed to.
struct ChannelAffine {
  const float* mean = nullptr;
  const float* inv_std = nullptr;
  const float* gamma = nullptr;
  const float* beta = nullptr;
};

}  // namespace hotspot::bitops
