#include "dataset/sample.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dataset/dataset.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace hotspot::dataset {
namespace {

using tensor::Tensor;

TEST(ClipSample, ImageRoundTrip) {
  Tensor image({4, 4});
  image.at2(1, 2) = 1.0f;
  const ClipSample sample =
      ClipSample::from_image(image, 1, Family::kTipToTip);
  EXPECT_EQ(sample.size, 4);
  EXPECT_EQ(sample.label, 1);
  EXPECT_EQ(sample.family, Family::kTipToTip);
  EXPECT_TRUE(tensor::allclose(sample.to_image(), image, 0.0));
}

TEST(ClipSample, FromImageThresholds) {
  Tensor image({2, 2}, {0.4f, 0.6f, 0.5f, 0.0f});
  const ClipSample sample =
      ClipSample::from_image(image, 0, Family::kDenseLines);
  EXPECT_EQ(sample.pixels[0], 0);
  EXPECT_EQ(sample.pixels[1], 1);
  EXPECT_EQ(sample.pixels[2], 1);  // 0.5 rounds up
}

TEST(ClipSample, RejectsNonSquare) {
  EXPECT_DEATH(
      ClipSample::from_image(Tensor({2, 3}), 0, Family::kJog),
      "HOTSPOT_CHECK");
}

// Plane b of a [N, 1, h, w] batch as an [h, w] image.
Tensor plane(const Tensor& batch, std::int64_t b) {
  const std::int64_t size = batch.dim(2) * batch.dim(3);
  const float* src = batch.data() + b * size;
  return Tensor({batch.dim(2), batch.dim(3)},
                std::vector<float>(src, src + size));
}

// batch_images draws each sample's mirrors from the augmentation RNG in
// index order: a horizontal flip with probability 1/2, then a vertical one.
struct Mirror {
  bool horizontal, vertical;
};

std::vector<Mirror> replay_mirrors(std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed);
  std::vector<Mirror> mirrors;
  for (std::size_t i = 0; i < count; ++i) {
    const bool horizontal = rng.bernoulli(0.5);
    mirrors.push_back({horizontal, rng.bernoulli(0.5)});
  }
  return mirrors;
}

TEST(ClipSample, FlipsAreInvolutions) {
  // Mirroring the mirrored clips again with the same draws restores them.
  util::Rng rng(1);
  Tensor image({6, 6});
  for (std::int64_t i = 0; i < image.numel(); ++i) {
    image[i] = rng.bernoulli(0.3) ? 1.0f : 0.0f;
  }
  HotspotDataset data;
  data.add(ClipSample::from_image(image, 0, Family::kComb));
  const std::vector<std::size_t> copies(8, 0);
  util::Rng augment(5);
  const Tensor mirrored = data.batch_images(copies, &augment);
  HotspotDataset mirrors;
  std::vector<std::size_t> indices;
  for (std::size_t b = 0; b < copies.size(); ++b) {
    mirrors.add(ClipSample::from_image(
        plane(mirrored, static_cast<std::int64_t>(b)), 0, Family::kComb));
    indices.push_back(b);
  }
  util::Rng replay(5);
  const Tensor restored = mirrors.batch_images(indices, &replay);
  const std::vector<Mirror> drawn = replay_mirrors(5, copies.size());
  for (std::size_t b = 0; b < copies.size(); ++b) {
    EXPECT_TRUE(tensor::allclose(
        plane(restored, static_cast<std::int64_t>(b)), image, 0.0))
        << "sample " << b << ", horizontal " << drawn[b].horizontal
        << ", vertical " << drawn[b].vertical;
  }
}

TEST(ClipSample, FlipMovesCorner) {
  // The one set corner lands where each drawn mirror sends it, and every
  // mirror combination is drawn.
  Tensor image({3, 3});
  image.at2(0, 0) = 1.0f;
  HotspotDataset data;
  data.add(ClipSample::from_image(image, 0, Family::kContacts));
  const std::vector<std::size_t> copies(16, 0);
  util::Rng augment(9);
  const Tensor batch = data.batch_images(copies, &augment);
  const std::vector<Mirror> drawn = replay_mirrors(9, copies.size());
  bool seen[2][2] = {};
  for (std::size_t b = 0; b < copies.size(); ++b) {
    const Mirror m = drawn[b];
    seen[m.horizontal][m.vertical] = true;
    const Tensor clip = plane(batch, static_cast<std::int64_t>(b));
    EXPECT_EQ(clip.at2(m.vertical ? 2 : 0, m.horizontal ? 2 : 0), 1.0f)
        << "sample " << b;
    EXPECT_EQ(clip.sum(), 1.0) << "sample " << b;
  }
  EXPECT_TRUE(seen[0][0] && seen[0][1] && seen[1][0] && seen[1][1]);
}

TEST(Family, Names) {
  EXPECT_STREQ(to_string(Family::kDenseLines), "dense-lines");
  EXPECT_STREQ(to_string(Family::kTJunction), "t-junction");
}

}  // namespace
}  // namespace hotspot::dataset
