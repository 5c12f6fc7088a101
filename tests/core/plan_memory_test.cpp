// The inference plan's memory plan (DESIGN.md §14): every activation lives
// in a slot of an arena the calling thread owns and reuses from call to
// call, with nothing zero-filled that a consumer reads, and the stem's max
// pool runs a tile of samples at a time. None of that may change a bit:
// a run must equal the same run on a fresh thread (an empty arena) at any
// batch-size history, stale NaNs in the arena included, and the fused stem
// pool must equal the conv then the pool.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/binary_conv.h"
#include "core/brnn.h"
#include "core/inference_plan.h"
#include "nn/batchnorm_layer.h"
#include "support/test_support.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace hotspot::core {
namespace {

using tensor::Tensor;
using test_support::expect_bit_identical;

// Seeded weights with batch-norm statistics from three training forwards,
// in eval mode.
std::unique_ptr<BrnnModel> make_model(const BrnnConfig& config,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  auto model = std::make_unique<BrnnModel>(config, rng);
  model->set_training(true);
  for (int i = 0; i < 3; ++i) {
    model->forward(Tensor::uniform(
        {6, 1, config.image_size, config.image_size}, rng, -1.0f, 1.0f));
  }
  model->set_training(false);
  return model;
}

Tensor images(const BrnnConfig& config, std::int64_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::uniform({n, 1, config.image_size, config.image_size}, rng,
                         -1.0f, 1.0f);
}

BrnnConfig paper_at(std::int64_t image_size) {
  BrnnConfig config = BrnnConfig::paper();
  config.image_size = image_size;
  return config;
}

// The plan's logits for `x` on a thread of their own, whose arena starts
// empty.
Tensor run_on_fresh_thread(const InferencePlan& plan, const Tensor& x) {
  Tensor logits;
  std::thread([&] { logits = plan.run(x); }).join();
  return logits;
}

const std::int64_t kBatches[] = {64, 5, 1, 37, 65};

TEST(PlanMemory, BatchSequenceMatchesFreshThreads) {
  for (const BrnnConfig& config : {BrnnConfig::compact(32), paper_at(64)}) {
    const std::unique_ptr<BrnnModel> model = make_model(config, 3);
    const std::shared_ptr<const InferencePlan> plan = model->plan();
    std::vector<Tensor> want;
    for (const std::int64_t batch : kBatches) {
      want.push_back(run_on_fresh_thread(
          *plan, images(config, batch, static_cast<std::uint64_t>(batch))));
    }
    // One thread, one arena, every batch size in turn: it grows at 64 and
    // 65 and is reused, larger than needed, in between.
    std::thread([&] {
      for (std::size_t i = 0; i < want.size(); ++i) {
        const std::int64_t batch = kBatches[i];
        expect_bit_identical(
            plan->run(images(config, batch, static_cast<std::uint64_t>(batch))),
            want[i],
            "image size " + std::to_string(config.image_size) + ", batch " +
                std::to_string(batch));
      }
    }).join();
  }
}

TEST(PlanMemory, StaleArenaNaNsAreNeverRead) {
  for (const BrnnConfig& config : {BrnnConfig::compact(32), paper_at(64)}) {
    const std::unique_ptr<BrnnModel> model = make_model(config, 4);
    const std::shared_ptr<const InferencePlan> plan = model->plan();
    const Tensor poison =
        Tensor({65, 1, config.image_size, config.image_size},
               std::numeric_limits<float>::quiet_NaN());
    std::thread([&] {
      // NaN in every activation, sign stream, alpha_T and pooling tile the
      // 65-clip run writes.
      const Tensor nan_logits = plan->run(poison);
      ASSERT_TRUE(std::isnan(nan_logits[0]));
      for (const std::int64_t batch : {64, 37, 1}) {
        const Tensor x = images(config, batch, 7);
        expect_bit_identical(plan->run(x), run_on_fresh_thread(*plan, x),
                             "after a NaN batch, image size " +
                                 std::to_string(config.image_size) +
                                 ", batch " + std::to_string(batch));
      }
    }).join();
  }
}

// The stem of BrnnConfig::paper() (1 -> 16, 3x3 stride 2, then a 2x2 max
// pool) at 128 px, a tile of one sample, and at 20 px, whose 10x10 output
// planes put 16 samples in a sample group and 32 in a tile, so batches of
// 3 and 65 end in a partial tile and 65 in a partial lane word.
TEST(PlanMemory, FusedStemPoolMatchesConvThenPool) {
  test_support::ThreadsGuard threads_guard;
  const tensor::PoolSpec pool{2, 2};
  for (const std::int64_t size : {128, 20}) {
    util::Rng rng(static_cast<std::uint64_t>(size));
    nn::BatchNorm2d bn(1);
    bn.mutable_running_var()[0] = 0.25f;
    bn.set_training(false);
    BinaryConv2d conv(1, 16, 3, 2, 1, bitops::InputScaling::kPerChannel, rng);
    conv.set_span_label("brnn.conv.stem");
    const ConvStep unfused(bn, conv);
    const ConvStep fused(bn, conv, pool);
    for (const std::int64_t batch : {1, 3, 64, 65}) {
      // Channel-major [1, N, H, W]: with one channel, the NCHW batch.
      const Tensor x = Tensor::uniform({1, batch, size, size}, rng, -1.0f,
                                       1.0f);
      const Tensor want = tensor::max_pool2d(unfused.run(x), pool, nullptr);
      for (const int threads : {1, 4}) {
        util::set_parallel_threads(threads);
        expect_bit_identical(fused.run(x), want,
                             std::to_string(size) + " px, batch " +
                                 std::to_string(batch) + ", threads " +
                                 std::to_string(threads));
      }
    }
  }
}

TEST(PlanMemory, PaperArenaWithinLivenessBound) {
  const BrnnConfig config = BrnnConfig::paper();
  const std::unique_ptr<BrnnModel> model = make_model(config, 5);
  const std::shared_ptr<const InferencePlan> plan = model->plan();
  const MemoryPlan memory = plan->memory_plan(64);
  // Block1b's input stage holds block1's input, block1a's output and the
  // largest input-stage scratch at once, so the three slots cost no more
  // than the largest live set.
  EXPECT_LE(memory.arena_bytes(), memory.live_bytes);
  EXPECT_GT(memory.main_bytes, 0);
  EXPECT_GT(memory.residual_bytes, 0);
  EXPECT_GT(memory.scratch_bytes, 0);
  std::int64_t arena = 0;
  std::thread([&] {
    plan->run(images(config, 64, 1));
    arena = InferencePlan::thread_arena_bytes();
  }).join();
  EXPECT_EQ(arena, memory.arena_bytes());
}

// Threads with arenas of their own run one plan at once, each cycling
// through every batch size.
TEST(PlanMemory, ConcurrentMixedBatchSizes) {
  const BrnnConfig config = paper_at(64);
  const std::unique_ptr<BrnnModel> model = make_model(config, 9);
  const std::shared_ptr<const InferencePlan> plan = model->plan();
  std::vector<Tensor> inputs;
  std::vector<Tensor> want;
  for (const std::int64_t batch : kBatches) {
    inputs.push_back(images(config, batch, static_cast<std::uint64_t>(batch)));
    want.push_back(plan->run(inputs.back()));
  }
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < 2 * inputs.size(); ++i) {
        const std::size_t k = (i + static_cast<std::size_t>(t)) % inputs.size();
        const Tensor got = plan->run(inputs[k]);
        if (std::memcmp(got.data(), want[k].data(),
                        static_cast<std::size_t>(got.numel()) *
                            sizeof(float)) != 0) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace hotspot::core
