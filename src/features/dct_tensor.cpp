#include "features/dct_tensor.h"

#include "util/check.h"

namespace hotspot::features {

tensor::Tensor dct_feature_batch(const dataset::HotspotDataset& data,
                                 const std::vector<std::size_t>& indices,
                                 const DctTensorSpec& spec) {
  HOTSPOT_CHECK(!indices.empty());
  const std::int64_t ls = data.image_size();
  HOTSPOT_CHECK_EQ(ls % spec.block, 0);
  const std::int64_t tiles = ls / spec.block;
  tensor::Tensor batch({static_cast<std::int64_t>(indices.size()),
                        spec.coefficients, tiles, tiles});
  for (std::size_t b = 0; b < indices.size(); ++b) {
    const tensor::Tensor features = tensor::block_dct_features(
        data.sample(indices[b]).to_image(), spec.block, spec.coefficients);
    float* dst = batch.data() +
                 static_cast<std::int64_t>(b) * features.numel();
    for (std::int64_t i = 0; i < features.numel(); ++i) {
      dst[i] = features[i];
    }
  }
  return batch;
}

}  // namespace hotspot::features
