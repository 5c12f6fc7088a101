#include "nn/init.h"

#include <cmath>

#include "util/check.h"

namespace hotspot::nn {

std::pair<std::int64_t, std::int64_t> compute_fans(
    const tensor::Shape& shape) {
  HOTSPOT_CHECK_GE(shape.size(), 2u);
  std::int64_t receptive = 1;
  for (std::size_t i = 2; i < shape.size(); ++i) {
    receptive *= shape[i];
  }
  return {shape[1] * receptive, shape[0] * receptive};
}

tensor::Tensor xavier_uniform(tensor::Shape shape, std::int64_t fan_in,
                              std::int64_t fan_out, util::Rng& rng) {
  HOTSPOT_CHECK_GT(fan_in + fan_out, 0);
  const double bound =
      std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  return tensor::Tensor::uniform(std::move(shape), rng,
                                 static_cast<float>(-bound),
                                 static_cast<float>(bound));
}

}  // namespace hotspot::nn
