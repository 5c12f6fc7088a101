// Optimizer interface: updates a fixed set of parameters from their
// accumulated gradients. The paper trains with mini-batch gradient descent
// driven by NAdam (Sec. 3.3 / 3.4.2), the one implementation (nadam.h);
// every trained model here, the DAC'17 baseline included, uses it through
// core::Trainer.
#pragma once

#include <vector>

#include "nn/module.h"

namespace hotspot::optim {

class Optimizer {
 public:
  explicit Optimizer(std::vector<nn::Parameter*> params, float learning_rate);
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  // Applies one update from the current .grad fields, then increments the
  // step counter. Does not zero gradients; the trainer owns that.
  virtual void step() = 0;

  void zero_grad();

  float learning_rate() const { return learning_rate_; }
  void set_learning_rate(float lr) { learning_rate_ = lr; }
  std::int64_t step_count() const { return step_count_; }

  // L2 norm over all parameter gradients. NaN/Inf gradients propagate into
  // the result, which is what the trainer's numeric-health guard keys on.
  double grad_norm() const;

  // Multiplies every gradient by `scale` (the trainer's norm clipping).
  void scale_gradients(float scale);

 protected:
  // Called by step() implementations after applying the update: advances the
  // step counter and bumps every parameter's version so weight-derived
  // caches (e.g. packed binary filters) know to refresh.
  void finish_step();

  std::vector<nn::Parameter*> params_;
  float learning_rate_;
  std::int64_t step_count_ = 0;
};

}  // namespace hotspot::optim
