// NAdam: Adam with Nesterov momentum (Dozat, 2016). This is the optimizer
// the paper trains with (Sec. 3.3 / 3.4.2), and the only one: every trained
// model here, the DAC'17 baseline included, uses it through core::Trainer.
#pragma once

#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"

namespace hotspot::optim {

class NAdam {
 public:
  // Dozat's defaults, which the paper's recipe uses unchanged.
  static constexpr float kBeta1 = 0.9f;
  static constexpr float kBeta2 = 0.999f;
  static constexpr float kEpsilon = 1e-8f;

  NAdam(std::vector<nn::Parameter*> params, float learning_rate);

  NAdam(const NAdam&) = delete;
  NAdam& operator=(const NAdam&) = delete;

  // Applies one update from the current .grad fields, then bumps every
  // parameter's version so weight-derived caches (the compiled inference
  // plan) recompile. Does not zero gradients; the trainer owns that.
  void step();

  float learning_rate() const { return learning_rate_; }
  void set_learning_rate(float lr) { learning_rate_ = lr; }

  // L2 norm over all parameter gradients. NaN/Inf gradients propagate into
  // the result, which is what the trainer's numeric-health guard keys on.
  double grad_norm() const;

  // Multiplies every gradient by `scale` (the trainer's norm clipping).
  void scale_gradients(float scale);

 private:
  std::vector<nn::Parameter*> params_;
  float learning_rate_;
  std::int64_t step_count_ = 0;
  std::vector<tensor::Tensor> first_moment_;
  std::vector<tensor::Tensor> second_moment_;
};

}  // namespace hotspot::optim
