// Thread-safety of the inference entry points: N concurrent callers of
// BrnnModel::forward, BrnnModel::predict (what the scan pipeline calls)
// and serve::ServableModel::predict must get results bit-identical to the
// single-threaded reference, with no lock around inference — every forward
// runs the model's immutable compiled plan in the calling thread's arena.
// The plan must also follow every change of the model state it was
// compiled from.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bitops/kernels/xnor_kernel.h"
#include "core/bnn_detector.h"
#include "dataset/generator.h"
#include "nn/serialize.h"
#include "optim/nadam.h"
#include "serve/model_registry.h"
#include "support/test_support.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace hotspot::core {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr std::int64_t kGrid = 32;

Tensor random_batch(unsigned seed, std::int64_t count) {
  Tensor images(Shape{count, 1, kGrid, kGrid});
  unsigned state = seed * 2654435761u + 3;
  for (std::int64_t i = 0; i < images.numel(); ++i) {
    state = state * 1664525u + 1013904223u;
    images[i] = (state >> 16) % 2 == 0 ? 0.0f : 1.0f;
  }
  return images;
}

// One quickly-trained detector shared by every test case (training
// dominates the suite's cost; the assertions only need fixed weights).
BnnHotspotDetector& shared_detector() {
  static BnnHotspotDetector* detector = [] {
    BnnDetectorConfig config = BnnDetectorConfig::compact(kGrid);
    config.trainer.epochs = 1;
    config.trainer.finetune_epochs = 1;
    auto* built = new BnnHotspotDetector(config);
    dataset::BenchmarkConfig bench = dataset::iccad2012_config(1.0, kGrid);
    bench.train.hotspots = 12;
    bench.train.non_hotspots = 36;
    bench.seed = 2025;
    util::Rng data_rng(123);
    const dataset::HotspotDataset train =
        dataset::generate_split(bench, bench.train, data_rng);
    util::Rng fit_rng(7);
    built->fit(train, fit_rng);
    return built;
  }();
  return *detector;
}

// Seeded compact model with calibrated batch-norm statistics, eval mode.
std::unique_ptr<BrnnModel> calibrated_model(unsigned seed) {
  util::Rng rng(seed);
  auto model = std::make_unique<BrnnModel>(BrnnConfig::compact(kGrid), rng);
  model->set_training(true);
  for (int i = 0; i < 3; ++i) {
    model->forward(random_batch(seed + static_cast<unsigned>(i), 8));
  }
  model->set_training(false);
  return model;
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// Logits of a model freshly built from `model`'s saved state: the plan a
// brand-new deployment of the same weights and statistics would compile.
Tensor fresh_logits(BrnnModel& model, const Tensor& images,
                    const std::string& name) {
  const std::string path = test_support::test_path(name);
  EXPECT_TRUE(nn::save_checkpoint(path, model).ok());
  util::Rng rng(0);
  BrnnModel fresh(model.config(), rng);
  EXPECT_TRUE(nn::load_checkpoint(path, fresh).ok());
  fresh.set_training(false);
  std::remove(path.c_str());
  return fresh.forward(images);
}

TEST(ConcurrentPredict, ManyThreadsMatchSingleThreadedReference) {
  BrnnModel& model = shared_detector().model();
  constexpr int kThreads = 8;
  constexpr int kIterations = 6;
  // Reference labels computed single-threaded, per (thread, iteration)
  // input, before any concurrency starts.
  std::vector<std::vector<std::vector<int>>> expected(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kIterations; ++i) {
      const unsigned seed = static_cast<unsigned>(t * 100 + i);
      expected[static_cast<std::size_t>(t)].push_back(
          model.predict(random_batch(seed, 3 + i % 4)));
    }
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const unsigned seed = static_cast<unsigned>(t * 100 + i);
        const Tensor images = random_batch(seed, 3 + i % 4);
        const std::vector<int> labels = model.predict(images);
        if (labels != expected[static_cast<std::size_t>(t)]
                              [static_cast<std::size_t>(i)]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentPredict, HammerOnSharedProbeStaysBitIdentical) {
  // All threads replay the exact same probe batch: any cross-thread
  // sharing of scratch state would show up as a label differing from the
  // single-threaded reference. (Concurrent model replacement is exercised
  // at the ModelRegistry level, where swaps publish immutable models —
  // set_backend is not part of the concurrent contract here.)
  BrnnModel& model = shared_detector().model();
  const Tensor probe = random_batch(999, 4);
  model.set_backend(Backend::kFloatSim);
  const std::vector<int> ref_float = model.predict(probe);
  model.set_backend(Backend::kPacked);
  const std::vector<int> ref_packed = model.predict(probe);
  // Packed-equivalence sanity: both backends label the probe identically.
  ASSERT_EQ(ref_float, ref_packed);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        if (model.predict(probe) != ref_packed) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentPredict, LockFreeForwardHammerIsBitIdentical) {
  std::unique_ptr<BrnnModel> model = calibrated_model(31);
  constexpr int kThreads = 8;
  constexpr int kIterations = 5;
  std::vector<Tensor> inputs;
  std::vector<Tensor> expected;
  for (int t = 0; t < kThreads; ++t) {
    inputs.push_back(random_batch(static_cast<unsigned>(500 + t), 2 + t % 3));
    expected.push_back(model->forward(inputs.back()));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto i = static_cast<std::size_t>(t);
      for (int iteration = 0; iteration < kIterations; ++iteration) {
        // Redundant eval requests must stay harmless under concurrency.
        model->set_training(false);
        if (!bit_identical(model->forward(inputs[i]), expected[i])) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentPredict, ServableModelHammerIsBitIdentical) {
  const std::string path = test_support::test_path("servable_hammer.bin");
  ASSERT_TRUE(nn::save_checkpoint(path, *calibrated_model(47)).ok());
  serve::ServableModel servable(path, kGrid, 1);
  ASSERT_TRUE(servable.load_result().ok());
  const Tensor probe = random_batch(4242, 6);
  const std::vector<int> reference = servable.predict(probe);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        if (servable.predict(probe) != reference) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  std::remove(path.c_str());
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentPredict, RedundantEvalCallsKeepThePlan) {
  std::unique_ptr<BrnnModel> model = calibrated_model(3);
  const Tensor probe = random_batch(5, 2);
  const Tensor first = model->forward(probe);
  const std::shared_ptr<const InferencePlan> plan = model->published_plan();
  for (int batch = 0; batch < 5; ++batch) {
    model->set_training(false);  // already eval: must not recompile
    EXPECT_TRUE(bit_identical(model->forward(probe), first));
  }
  EXPECT_EQ(model->published_plan(), plan);
}

TEST(ConcurrentPredict, PlanRecompiledAfterOptimizerStep) {
  std::unique_ptr<BrnnModel> model = calibrated_model(7);
  const Tensor probe = random_batch(8, 4);
  const Tensor before = model->forward(probe);
  // One training step, exactly as the trainer applies it.
  model->set_training(true);
  const Tensor logits = model->forward(probe);
  model->zero_grad();
  model->backward(Tensor::ones(logits.shape()));
  optim::NAdam nadam(model->parameters(), 0.5f);
  nadam.step();
  model->set_training(false);
  const Tensor after = model->forward(probe);
  EXPECT_FALSE(bit_identical(before, after)) << "stale plan reused";
  EXPECT_TRUE(bit_identical(after, fresh_logits(*model, probe, "opt.bin")));
}

TEST(ConcurrentPredict, PlanRecompiledAfterCheckpointLoad) {
  std::unique_ptr<BrnnModel> model = calibrated_model(9);
  std::unique_ptr<BrnnModel> other = calibrated_model(10);
  const Tensor probe = random_batch(11, 4);
  model->forward(probe);  // publishes a plan for the old weights
  const std::string path = test_support::test_path("other.bin");
  ASSERT_TRUE(nn::save_checkpoint(path, *other).ok());
  ASSERT_TRUE(nn::load_checkpoint(path, *model).ok());
  std::remove(path.c_str());
  EXPECT_TRUE(bit_identical(model->forward(probe), other->forward(probe)));
}

TEST(ConcurrentPredict, PlanRecompiledAfterTrainingForward) {
  std::unique_ptr<BrnnModel> model = calibrated_model(12);
  const Tensor probe = random_batch(13, 4);
  const Tensor before = model->forward(probe);
  // A training-mode forward moves only the batch-norm running statistics.
  model->set_training(true);
  model->forward(random_batch(14, 8));
  model->set_training(false);
  const Tensor after = model->forward(probe);
  EXPECT_FALSE(bit_identical(before, after)) << "stale BN statistics";
  EXPECT_TRUE(bit_identical(after, fresh_logits(*model, probe, "bn.bin")));
}

TEST(ConcurrentPredict, PlanRecompiledAfterKernelSwitch) {
  test_support::KernelGuard guard;
  std::unique_ptr<BrnnModel> model = calibrated_model(15);
  const Tensor probe = random_batch(16, 4);
  for (const bitops::XnorKernel* kernel : test_support::runnable_kernels()) {
    bitops::set_active_xnor_kernel(*kernel);
    const Tensor logits = model->forward(probe);
    EXPECT_EQ(&model->published_plan()->kernel(), kernel) << kernel->name;
    EXPECT_TRUE(bit_identical(logits, fresh_logits(*model, probe, "k.bin")))
        << kernel->name;
  }
}

}  // namespace
}  // namespace hotspot::core
