// Weight initialization schemes (Sec. 3.4.2 uses Xavier).
#pragma once

#include "tensor/tensor.h"
#include "util/rng.h"

namespace hotspot::nn {

// Xavier/Glorot uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out)).
tensor::Tensor xavier_uniform(tensor::Shape shape, std::int64_t fan_in,
                              std::int64_t fan_out, util::Rng& rng);

// Fan-in / fan-out for a conv weight [Cout, Cin, kh, kw] or linear
// [out, in].
std::pair<std::int64_t, std::int64_t> compute_fans(const tensor::Shape& shape);

}  // namespace hotspot::nn
