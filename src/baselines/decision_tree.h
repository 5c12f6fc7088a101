// Weighted axis-aligned decision trees: the weak learner for the SPIE'15
// AdaBoost baseline [11].
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace hotspot::baselines {

// Binary tree over feature-threshold splits; labels are {-1,+1}.
class DecisionTree {
 public:
  // Fits a tree of at most `max_depth` levels to weighted samples.
  // `features` is [n, d]; `labels` in {-1,+1}; `weights` non-negative and
  // not all zero. `thresholds_per_feature` candidate cuts are taken at
  // value quantiles.
  void fit(const tensor::Tensor& features, const std::vector<int>& labels,
           const std::vector<double>& weights, int max_depth,
           int thresholds_per_feature = 16);

  // Predicted label in {-1,+1} for one row of a feature matrix.
  int predict_row(const tensor::Tensor& features, std::int64_t row) const;

  // Weighted training error of the fitted tree.
  double weighted_error(const tensor::Tensor& features,
                        const std::vector<int>& labels,
                        const std::vector<double>& weights) const;

  bool fitted() const { return !nodes_.empty(); }

 private:
  struct Node {
    bool leaf = true;
    int label = 1;              // leaf payload
    std::int64_t feature = -1;  // split payload
    float threshold = 0.0f;
    std::int32_t left = -1;   // feature < threshold
    std::int32_t right = -1;  // feature >= threshold
  };

  std::int32_t build(const tensor::Tensor& features,
                     const std::vector<int>& labels,
                     const std::vector<double>& weights,
                     const std::vector<std::int64_t>& rows, int depth,
                     int thresholds_per_feature);

  std::vector<Node> nodes_;
};

}  // namespace hotspot::baselines
