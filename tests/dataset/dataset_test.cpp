#include "dataset/dataset.h"

#include <gtest/gtest.h>

#include <set>

#include "tensor/tensor_ops.h"

namespace hotspot::dataset {
namespace {

using tensor::Tensor;

ClipSample make_sample(int label, Family family, float fill = 1.0f) {
  Tensor image({4, 4}, fill);
  return ClipSample::from_image(image, label, family);
}

TEST(Dataset, StatsCountClasses) {
  HotspotDataset data;
  data.add(make_sample(1, Family::kDenseLines));
  data.add(make_sample(0, Family::kDenseLines));
  data.add(make_sample(0, Family::kComb));
  const DatasetStats stats = data.stats();
  EXPECT_EQ(stats.hotspots, 1);
  EXPECT_EQ(stats.non_hotspots, 2);
  EXPECT_NEAR(stats.hotspot_ratio(), 1.0 / 3.0, 1e-9);
}

TEST(Dataset, StatsByFamily) {
  HotspotDataset data;
  data.add(make_sample(1, Family::kComb));
  data.add(make_sample(1, Family::kComb));
  data.add(make_sample(0, Family::kJog));
  const auto by_family = data.stats_by_family();
  EXPECT_EQ(by_family[static_cast<int>(Family::kComb)].hotspots, 2);
  EXPECT_EQ(by_family[static_cast<int>(Family::kJog)].non_hotspots, 1);
}

TEST(Dataset, RejectsMixedImageSizes) {
  HotspotDataset data;
  data.add(make_sample(0, Family::kJog));
  ClipSample other = ClipSample::from_image(Tensor({8, 8}), 0, Family::kJog);
  EXPECT_DEATH(data.add(std::move(other)), "HOTSPOT_CHECK");
}

TEST(Dataset, BatchImagesShapeAndValues) {
  HotspotDataset data;
  data.add(make_sample(0, Family::kJog, 0.0f));
  data.add(make_sample(1, Family::kJog, 1.0f));
  const Tensor batch = data.batch_images({1, 0});
  EXPECT_EQ(batch.shape(), (tensor::Shape{2, 1, 4, 4}));
  EXPECT_EQ(batch.at4(0, 0, 0, 0), 1.0f);  // first index = sample 1
  EXPECT_EQ(batch.at4(1, 0, 0, 0), 0.0f);
}

TEST(Dataset, BatchLabelsFollowIndices) {
  HotspotDataset data;
  data.add(make_sample(0, Family::kJog));
  data.add(make_sample(1, Family::kJog));
  const auto labels = data.batch_labels({1, 1, 0});
  EXPECT_EQ(labels, (std::vector<int>{1, 1, 0}));
}

TEST(Dataset, AugmentationPreservesContentMass) {
  // Flips permute pixels; the number of set pixels is invariant.
  HotspotDataset data;
  Tensor image({4, 4});
  image.at2(0, 1) = image.at2(2, 3) = 1.0f;
  data.add(ClipSample::from_image(image, 0, Family::kJog));
  util::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const Tensor batch = data.batch_images({0}, &rng);
    EXPECT_DOUBLE_EQ(batch.sum(), 2.0);
  }
}

TEST(Dataset, AllIndicesShuffledIsPermutation) {
  HotspotDataset data;
  for (int i = 0; i < 20; ++i) {
    data.add(make_sample(0, Family::kJog));
  }
  util::Rng rng(3);
  const auto indices = data.all_indices(&rng);
  std::set<std::size_t> unique(indices.begin(), indices.end());
  EXPECT_EQ(unique.size(), 20u);
}

TEST(Dataset, EmptyDatasetProperties) {
  HotspotDataset data;
  EXPECT_TRUE(data.empty());
  EXPECT_EQ(data.image_size(), 0);
  EXPECT_EQ(data.stats().total(), 0);
}

}  // namespace
}  // namespace hotspot::dataset
