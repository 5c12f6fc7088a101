// NAdam: Adam with Nesterov momentum (Dozat, 2016). This is the optimizer
// the paper trains with (Sec. 3.4.2).
#pragma once

#include "optim/optimizer.h"
#include "tensor/tensor.h"

namespace hotspot::optim {

class NAdam : public Optimizer {
 public:
  NAdam(std::vector<nn::Parameter*> params, float learning_rate,
        float beta1 = 0.9f, float beta2 = 0.999f, float epsilon = 1e-8f,
        float weight_decay = 0.0f);

  void step() override;

 private:
  float beta1_;
  float beta2_;
  float epsilon_;
  float weight_decay_;
  std::vector<tensor::Tensor> first_moment_;
  std::vector<tensor::Tensor> second_moment_;
};

}  // namespace hotspot::optim
