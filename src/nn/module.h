// Module: the building block of every network in this library.
//
// Each module owns its parameters and caches whatever its backward pass
// needs during forward. backward() must be called with the gradient of the
// loss w.r.t. the module's output, after the matching forward(); it
// accumulates into parameter .grad fields and returns the gradient w.r.t.
// the input. Gradients are validated against finite differences in
// tests/nn/gradient_check_test.cpp.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace hotspot::nn {

using tensor::Tensor;

// A named view of a tensor owned elsewhere; the unit of (de)serialization.
struct NamedTensor {
  std::string name;
  Tensor* value = nullptr;
};

// A trainable tensor together with its accumulated gradient.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
  // Incremented on every mutation of `value` (optimizer steps, checkpoint
  // loads). Consumers that derive state from the weights — e.g. the
  // compiled inference plan of BrnnModel — key on this counter instead of
  // re-deriving per call.
  std::uint64_t version = 0;

  Parameter() = default;
  Parameter(std::string param_name, Tensor initial)
      : name(std::move(param_name)),
        value(std::move(initial)),
        grad(value.shape()) {}

  void zero_grad() { grad.fill(0.0f); }
  void bump_version() { ++version; }
};

class Module {
 public:
  // Inherited alias so subclasses in other namespaces can spell `Tensor`.
  using Tensor = tensor::Tensor;

  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  Module(Module&&) = default;
  Module& operator=(Module&&) = default;

  // Computes the output for `input`, caching state for backward().
  virtual Tensor forward(const Tensor& input) = 0;

  // Propagates `grad_output` (d loss / d output) back through the cached
  // forward state, accumulating parameter gradients; returns
  // d loss / d input.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  // All trainable parameters, in a stable order.
  virtual std::vector<Parameter*> parameters() { return {}; }

  // Layer type plus salient dimensions, for architecture tables.
  virtual std::string name() const = 0;

  // Training vs. inference mode (batch norm statistics). Writes
  // nothing when the mode is unchanged, so concurrent inference callers
  // that defensively request eval mode never race on the flag.
  virtual void set_training(bool training) {
    if (training_ != training) {
      training_ = training;
    }
  }
  bool training() const { return training_; }

  void zero_grad() {
    for (Parameter* param : parameters()) {
      param->zero_grad();
    }
  }

  // Appends every tensor that defines the module's learned state (parameters
  // plus non-trainable buffers such as batch-norm running statistics) under
  // `prefix`. Containers recurse with indexed prefixes so names are stable.
  virtual void collect_state(const std::string& prefix,
                             std::vector<NamedTensor>& out);

  // Total trainable scalar count.
  std::int64_t parameter_count();

 protected:
  bool training_ = true;
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace hotspot::nn
