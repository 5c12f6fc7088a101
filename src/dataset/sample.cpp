#include "dataset/sample.h"

#include "util/check.h"

namespace hotspot::dataset {

const char* to_string(Family family) {
  switch (family) {
    case Family::kDenseLines:
      return "dense-lines";
    case Family::kTipToTip:
      return "tip-to-tip";
    case Family::kJog:
      return "jog";
    case Family::kContacts:
      return "contacts";
    case Family::kComb:
      return "comb";
    case Family::kTJunction:
      return "t-junction";
  }
  return "?";
}

tensor::Tensor ClipSample::to_image() const {
  HOTSPOT_CHECK_EQ(static_cast<std::int64_t>(pixels.size()),
                   static_cast<std::int64_t>(size) * size);
  tensor::Tensor image({size, size});
  for (std::size_t i = 0; i < pixels.size(); ++i) {
    image[static_cast<std::int64_t>(i)] = pixels[i] ? 1.0f : 0.0f;
  }
  return image;
}

ClipSample ClipSample::from_image(const tensor::Tensor& image, int label,
                                  Family family) {
  HOTSPOT_CHECK_EQ(image.rank(), 2);
  HOTSPOT_CHECK_EQ(image.dim(0), image.dim(1));
  ClipSample sample;
  sample.size = static_cast<std::int32_t>(image.dim(0));
  sample.label = static_cast<std::int8_t>(label);
  sample.family = family;
  sample.pixels.resize(static_cast<std::size_t>(image.numel()));
  for (std::int64_t i = 0; i < image.numel(); ++i) {
    sample.pixels[static_cast<std::size_t>(i)] = image[i] >= 0.5f ? 1 : 0;
  }
  return sample;
}

}  // namespace hotspot::dataset
