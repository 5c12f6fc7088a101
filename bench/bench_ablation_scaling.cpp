// Ablation: input scaling factor variants (design choice, Sec. 3.2/3.4.3).
//
// The paper refines XNOR-Net by giving each input channel its own scaling
// factor alpha_T (Eq. 14), arguing it estimates the input tensor more
// accurately. This ablation trains the same BRNN with
//   per-channel alpha_T (paper) / scalar alpha (XNOR-Net)
// and reports accuracy, false alarms, estimation error, and packed
// inference time — the accuracy-vs-speed tradeoff behind the design.
#include <cstdio>

#include "bench_common.h"
#include "core/bnn_detector.h"
#include "dataset/generator.h"
#include "eval/evaluation.h"
#include "tensor/tensor_ops.h"
#include "util/string_util.h"
#include "util/table.h"

int main() {
  using namespace hotspot;
  bench::print_header(
      "Ablation: alpha_T input-scaling variants",
      "per-channel scaling 'can estimate the input tensor more accurately' "
      "than XNOR-Net's shared factor (Sec. 3.2)");

  const auto ls = bench::bench_image_size();
  const dataset::Benchmark data = dataset::generate_benchmark(
      dataset::iccad2012_config(bench::bench_scale(), ls));

  // Estimation error of each variant: ||X - alpha (x) sign(X)|| / ||X|| on a
  // multi-channel activation tensor whose channels have very different
  // magnitudes (the situation Eq. 14's per-channel factors are built for;
  // clip images themselves have one channel, but every deeper layer of the
  // network sees many).
  util::Rng noise_rng(7);
  tensor::Tensor activations({8, 8, 16, 16});
  for (std::int64_t c = 0; c < 8; ++c) {
    const float stddev = 0.2f + 0.4f * static_cast<float>(c);
    for (std::int64_t n = 0; n < 8; ++n) {
      float* plane = activations.data() + (n * 8 + c) * 256;
      for (std::int64_t i = 0; i < 256; ++i) {
        plane[i] = static_cast<float>(noise_rng.normal(0.0, stddev));
      }
    }
  }
  const tensor::ConvSpec spec{3, 3, 1, 1};
  const tensor::Tensor s = tensor::sign(activations);

  util::Table table({"Scaling", "Accu (%)", "FA#", "Runtime (s)",
                     "rel. estimation error"});
  for (const auto mode :
       {bitops::InputScaling::kPerChannel, bitops::InputScaling::kScalar}) {
    tensor::Tensor estimate;
    if (mode == bitops::InputScaling::kPerChannel) {
      estimate =
          tensor::mul(s, bitops::input_scales_per_channel(activations, spec));
    } else {
      const tensor::Tensor alpha =
          bitops::input_scales_scalar(activations, spec);  // [N,1,H,W]
      estimate = tensor::Tensor(activations.shape());
      for (std::int64_t n = 0; n < 8; ++n) {
        for (std::int64_t c = 0; c < 8; ++c) {
          for (std::int64_t i = 0; i < 256; ++i) {
            estimate[(n * 8 + c) * 256 + i] =
                s[(n * 8 + c) * 256 + i] * alpha[n * 256 + i];
          }
        }
      }
    }
    const double rel_error =
        tensor::l2_norm(tensor::sub(activations, estimate)) /
        tensor::l2_norm(activations);

    core::BnnDetectorConfig config = core::BnnDetectorConfig::compact(ls);
    config.model.scaling = mode;
    core::BnnHotspotDetector detector(config);
    util::Rng rng(11);
    const eval::EvaluationRow row =
        eval::evaluate_detector(detector, data.train, data.test, rng);
    table.add_row({bitops::to_string(mode),
                   util::format_double(row.matrix.accuracy() * 100.0, 1),
                   util::format_count(row.matrix.false_alarm()),
                   util::format_double(row.eval_seconds, 2),
                   util::format_double(rel_error, 3)});
    std::printf("  trained %s\n", bitops::to_string(mode));
  }
  std::printf("\n%s", table.to_string().c_str());
  std::printf("Expected shape: per-channel has the lower estimation error; "
              "both modes run the same direct binary conv, so runtimes "
              "differ by the alpha_T each mode computes.\n");
  return 0;
}
