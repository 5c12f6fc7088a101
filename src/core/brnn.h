// The binarized residual network architecture of Fig. 2.
//
// Every convolution block is BatchNorm -> Binarize -> BinaryConv (Fig. 3;
// the binarize step lives inside BinaryConv2d, which consumes the real-
// valued BN output so it can also derive the alpha_T input scales). Residual
// blocks use two 3x3 binary conv blocks on the main path and a 1x1 binary
// conv block on the shortcut wherever shapes change. The paper's full
// network is 12 weight layers: stem conv + 5 residual blocks (2 convs each)
// + the fully connected classifier head.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>

#include "core/binary_conv.h"
#include "core/inference_plan.h"
#include "nn/batchnorm_layer.h"
#include "nn/linear_layer.h"
#include "nn/sequential.h"

namespace hotspot::core {

// How eval-mode forwards run. kPacked runs the compiled inference plan
// (core/inference_plan.h), the deployment path whose speed Fig. 1 / Table 3
// report. kFloatSim runs the module chain's float emulation of binarization
// (the cost reference). Training always runs the module chain.
enum class Backend { kFloatSim, kPacked };

struct BrnnConfig {
  // Clips are one binary raster channel, [N, 1, image_size, image_size].
  std::int64_t image_size = 128;
  std::int64_t stem_filters = 16;
  std::int64_t stem_stride = 2;
  bool stem_pool = true;  // 2x2 max pool after the stem (ResNet-style)
  // One residual block per entry; "the deeper a layer is, the more filters
  // it contains" (Sec. 3.1).
  std::vector<std::int64_t> block_filters{16, 32, 64, 128, 256};
  std::vector<std::int64_t> block_strides{1, 2, 2, 2, 2};
  bitops::InputScaling scaling = bitops::InputScaling::kPerChannel;

  // The paper's 12-layer network for 128x128 clips.
  static BrnnConfig paper();
  // A reduced instance for CI-scale experiments (8 weight layers); same
  // block structure, fewer stages/filters, sized for `image_size` inputs.
  static BrnnConfig compact(std::int64_t image_size);

  // Weight layers: stem + 2 per block (+1 per projection shortcut counts as
  // part of its block in the paper's "12 layers" figure, which counts only
  // the main path) + fc.
  std::int64_t main_path_layer_count() const {
    return 1 + 2 * static_cast<std::int64_t>(block_filters.size()) + 1;
  }
};

class BrnnModel : public nn::Module {
 public:
  BrnnModel(const BrnnConfig& config, util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override;
  void set_training(bool training) override;
  void collect_state(const std::string& prefix,
                     std::vector<nn::NamedTensor>& out) override;

  // Selects the eval-mode path (default kPacked). Not synchronized with
  // concurrent forwards: switch before sharing the model.
  void set_backend(Backend backend) { backend_ = backend; }
  Backend backend() const { return backend_; }

  // The plan kPacked forwards run, compiled on first use and recompiled
  // (published as a fresh immutable object) whenever state_version() or
  // the dispatched XNOR kernel moved since the last compile. Concurrent
  // callers may compile redundantly; every result is equivalent.
  std::shared_ptr<const InferencePlan> plan();
  // The last published plan without compiling; null before the first
  // kPacked forward.
  std::shared_ptr<const InferencePlan> published_plan() const;
  // Changes whenever any parameter version moves (optimizer steps and
  // checkpoint loads bump them) or a training-mode forward updates the
  // batch-norm statistics. Code that writes weights or statistics in place
  // must bump a parameter version for kPacked forwards to see the change.
  std::uint64_t state_version() const;

  const BrnnConfig& config() const { return config_; }
  nn::Sequential& net() { return net_; }
  const std::vector<BinaryConv2d*>& binary_convs() const {
    return binary_convs_;
  }

  // Per-layer description lines of the top-level graph.
  std::vector<std::string> architecture() const { return net_.layer_names(); }

  // Stable per-layer trace-span labels ("brnn.layer.stem", ...), parallel
  // to the top-level modules of net(); forward() opens one span per entry.
  const std::vector<std::string>& layer_labels() const {
    return layer_labels_;
  }

  // Convenience: argmax labels for an image batch (eval mode must be set by
  // the caller). Reentrant on kPacked. Each sample's label is independent
  // of batch composition (α_T scaling, BN eval statistics and the direct
  // conv's per-lane arithmetic are all per-sample), so any batching of the
  // same images yields identical labels.
  std::vector<int> predict(const Tensor& images);

  // Roofline sample counter: samples forwarded while tracing was enabled,
  // on either backend. Every conv sees every sample, so one count serves
  // every roofline row. reset_profile() zeroes it; pair with
  // obs::reset_spans() so build_roofline() joins matching windows.
  std::uint64_t profile_samples() const {
    return profile_samples_.load(std::memory_order_relaxed);
  }
  void reset_profile() { profile_samples_.store(0, std::memory_order_relaxed); }

 private:
  // Builds BN -> BinaryConv with the given geometry, registering the conv
  // in binary_convs() under the given roofline span label
  // ("brnn.conv.stem", "brnn.conv.block<i>{a,b,sc}").
  nn::ModulePtr conv_block(std::int64_t in, std::int64_t out,
                           std::int64_t kernel, std::int64_t stride,
                           std::int64_t pad, const std::string& label,
                           util::Rng& rng);

  BrnnConfig config_;
  nn::Sequential net_;
  std::vector<BinaryConv2d*> binary_convs_;
  std::vector<std::string> layer_labels_;
  std::vector<nn::Parameter*> parameters_;
  Backend backend_ = Backend::kPacked;
  std::uint64_t statistics_updates_ = 0;  // training-mode forwards
  std::atomic<std::uint64_t> profile_samples_{0};
  // Guards the plan_ pointer only: callers copy it out and compile and run
  // plans outside the lock, so concurrent forwards never wait on each
  // other's inference (the same pattern as serve::ModelRegistry::active).
  mutable std::mutex plan_mutex_;
  std::shared_ptr<const InferencePlan> plan_;
};

}  // namespace hotspot::core
