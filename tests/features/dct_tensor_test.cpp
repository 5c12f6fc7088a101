#include "features/dct_tensor.h"

#include <gtest/gtest.h>

#include "tensor/tensor_ops.h"

namespace hotspot::features {
namespace {

using tensor::Tensor;

// Features of single binary images, through the dataset path the DAC'17
// baseline trains and predicts on.
Tensor batch_of(const std::vector<Tensor>& images, const DctTensorSpec& spec) {
  dataset::HotspotDataset data;
  std::vector<std::size_t> indices;
  for (const Tensor& image : images) {
    indices.push_back(data.size());
    data.add(dataset::ClipSample::from_image(image, 0,
                                             dataset::Family::kComb));
  }
  return dct_feature_batch(data, indices, spec);
}

TEST(DctTensor, ShapeFollowsSpec) {
  const DctTensorSpec spec{4, 8};
  const Tensor features = batch_of({Tensor({32, 32})}, spec);
  EXPECT_EQ(features.shape(), (tensor::Shape{1, 8, 8, 8}));
}

TEST(DctTensor, DcChannelEncodesTileDensity) {
  const DctTensorSpec spec{4, 4};
  Tensor image({8, 8});
  for (std::int64_t y = 0; y < 4; ++y) {
    for (std::int64_t x = 0; x < 4; ++x) {
      image.at2(y, x) = 1.0f;  // only the top-left tile is full
    }
  }
  const Tensor features = batch_of({image}, spec);
  EXPECT_GT(features.at4(0, 0, 0, 0), 1.0f);
  EXPECT_NEAR(features.at4(0, 0, 0, 1), 0.0f, 1e-5);
  EXPECT_NEAR(features.at4(0, 0, 1, 0), 0.0f, 1e-5);
}

TEST(DctTensor, BatchStacksSamples) {
  dataset::HotspotDataset data;
  data.add(dataset::ClipSample::from_image(Tensor({8, 8}, 1.0f), 1,
                                           dataset::Family::kComb));
  data.add(dataset::ClipSample::from_image(Tensor({8, 8}), 0,
                                           dataset::Family::kComb));
  const DctTensorSpec spec{4, 4};
  const Tensor batch = dct_feature_batch(data, {0, 1}, spec);
  EXPECT_EQ(batch.shape(), (tensor::Shape{2, 4, 2, 2}));
  EXPECT_GT(batch.at4(0, 0, 0, 0), 1.0f);
  EXPECT_NEAR(batch.at4(1, 0, 0, 0), 0.0f, 1e-6);
}

TEST(DctTensor, TranslationChangesFeatures) {
  // Unlike global pooling, block DCT keeps spatial information (the paper's
  // critique of [16] concerns the DCT truncation, not location): content in
  // different tiles yields different feature tensors.
  const DctTensorSpec spec{4, 4};
  Tensor left({8, 8});
  Tensor right({8, 8});
  left.at2(0, 0) = 1.0f;
  right.at2(0, 7) = 1.0f;
  const Tensor fl = batch_of({left}, spec);
  const Tensor fr = batch_of({right}, spec);
  EXPECT_GT(tensor::max_abs_diff(fl, fr), 0.01);
}

}  // namespace
}  // namespace hotspot::features
