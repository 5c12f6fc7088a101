// Dense row-major float tensor.
//
// The whole stack (training layers, baselines, feature extraction) works on
// this one value type. Layout convention for images/activations is NCHW.
// The class owns its storage; copies are deep, moves are cheap.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace hotspot::tensor {

using Shape = std::vector<std::int64_t>;

// Number of elements described by a shape (1 for the empty shape).
std::int64_t shape_numel(const Shape& shape);

// Human-readable "[2, 3, 4]" form for diagnostics.
std::string shape_to_string(const Shape& shape);

class Tensor {
 public:
  // Empty 0-d tensor.
  Tensor() = default;

  // Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  // Tensor of the given shape with every element set to `fill`.
  Tensor(Shape shape, float fill);

  // Tensor with explicit contents; `values.size()` must equal the shape's
  // element count.
  Tensor(Shape shape, std::vector<float> values);

  static Tensor ones(Shape shape) { return Tensor(std::move(shape), 1.0f); }
  // I.i.d. uniform entries in [lo, hi).
  static Tensor uniform(Shape shape, util::Rng& rng, float lo, float hi);
  // I.i.d. normal entries.
  static Tensor normal(Shape shape, util::Rng& rng, float mean, float stddev);

  const Shape& shape() const { return shape_; }
  std::int64_t rank() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t numel() const {
    return static_cast<std::int64_t>(data_.size());
  }
  std::int64_t dim(std::int64_t axis) const;

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  // Flat element access.
  float& operator[](std::int64_t index) {
    HOTSPOT_CHECK(index >= 0 && index < numel())
        << "flat index " << index << " out of range for " << numel();
    return data_[static_cast<std::size_t>(index)];
  }
  float operator[](std::int64_t index) const {
    HOTSPOT_CHECK(index >= 0 && index < numel())
        << "flat index " << index << " out of range for " << numel();
    return data_[static_cast<std::size_t>(index)];
  }

  // Multi-dimensional access; the argument count must match the rank.
  float& at(std::initializer_list<std::int64_t> indices) {
    return data_[flat_index(indices)];
  }
  float at(std::initializer_list<std::int64_t> indices) const {
    return data_[flat_index(indices)];
  }

  // Fast unchecked NCHW access for rank-4 tensors (hot loops).
  float& at4(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) {
    return data_[static_cast<std::size_t>(
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
  }
  float at4(std::int64_t n, std::int64_t c, std::int64_t h,
            std::int64_t w) const {
    return data_[static_cast<std::size_t>(
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
  }

  // Unchecked rank-2 access.
  float& at2(std::int64_t row, std::int64_t col) {
    return data_[static_cast<std::size_t>(row * shape_[1] + col)];
  }
  float at2(std::int64_t row, std::int64_t col) const {
    return data_[static_cast<std::size_t>(row * shape_[1] + col)];
  }

  // Returns a tensor with the same data and a new shape; element counts must
  // match.
  Tensor reshaped(Shape new_shape) const;

  void fill(float value);

  // Sum / mean / min / max over all elements.
  double sum() const;
  double mean() const;
  float min() const;
  float max() const;

  std::string to_string(int max_elements = 32) const;

 private:
  std::size_t flat_index(std::initializer_list<std::int64_t> indices) const;

  Shape shape_;
  std::vector<float> data_;
};

}  // namespace hotspot::tensor
