// ModelRegistry guarantees: CRC-checked loads, atomic hot-swap (a failed
// load leaves the previous model serving; a successful one is never
// observed torn), monotone versions, and restart recovery from the
// persisted state file.
#include "serve/model_registry.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/brnn.h"
#include "nn/serialize.h"
#include "obs/trace.h"
#include "tensor/tensor.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace hotspot::serve {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr std::int64_t kGrid = 16;

std::string temp_path(const std::string& name) {
  // ctest -j runs each TEST as its own process against a shared TempDir;
  // the pid keeps concurrent fixtures from clobbering each other's files.
  return std::string(::testing::TempDir()) + "/" + std::to_string(::getpid()) +
         "_" + name;
}

// Saves a compact(kGrid) model with seed-dependent random weights. Distinct
// seeds give models with (generically) distinct logits — enough to tell
// which archive a prediction came from without training anything.
std::string save_model(const std::string& name, std::uint64_t seed) {
  util::Rng rng(seed);
  core::BrnnModel model(core::BrnnConfig::compact(kGrid), rng);
  const std::string path = temp_path(name);
  EXPECT_TRUE(nn::save_checkpoint(path, model).ok());
  return path;
}

Tensor probe_batch(unsigned seed, std::int64_t count = 4) {
  Tensor images(Shape{count, 1, kGrid, kGrid});
  unsigned state = seed * 2654435761u + 7;
  for (std::int64_t i = 0; i < images.numel(); ++i) {
    state = state * 1664525u + 1013904223u;
    images[i] = (state >> 16) % 2 == 0 ? 0.0f : 1.0f;
  }
  return images;
}

TEST(ModelRegistry, LoadPublishesAndPredicts) {
  const std::string path = save_model("registry_a.bin", 11);
  ModelRegistry registry;
  EXPECT_EQ(registry.active(), nullptr);
  EXPECT_EQ(registry.version(), 0u);
  ASSERT_TRUE(registry.load(path, kGrid).ok());
  const std::shared_ptr<ServableModel> model = registry.active();
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(registry.version(), 1u);
  EXPECT_EQ(model->image_size(), kGrid);
  const std::vector<int> labels = model->predict(probe_batch(1));
  EXPECT_EQ(labels.size(), 4u);
  // Deterministic: the same batch replays to the same labels.
  EXPECT_EQ(model->predict(probe_batch(1)), labels);
}

TEST(ModelRegistry, FailedLoadLeavesActiveModelServing) {
  const std::string good = save_model("registry_good.bin", 12);
  const std::string corrupt = save_model("registry_corrupt.bin", 13);
  ModelRegistry registry;
  ASSERT_TRUE(registry.load(good, kGrid).ok());
  const std::shared_ptr<ServableModel> before = registry.active();
  const std::vector<int> reference = before->predict(probe_batch(2));
  // Flip one payload bit: the CRC-checked loader must refuse the archive.
  ASSERT_TRUE(util::corrupt_flip_bit(corrupt, 200, 3));
  const nn::LoadResult result = registry.load(corrupt, kGrid);
  // Depending on where the flip lands the loader types it kCorrupt or
  // kShapeMismatch; either way the load must fail without publishing.
  EXPECT_FALSE(result.ok());
  // Same shared_ptr, same version, same answers: nothing was torn down.
  EXPECT_EQ(registry.active(), before);
  EXPECT_EQ(registry.version(), 1u);
  EXPECT_EQ(registry.active()->predict(probe_batch(2)), reference);
  // Missing file likewise.
  EXPECT_FALSE(registry.load(temp_path("nonexistent.bin"), kGrid).ok());
  EXPECT_EQ(registry.active(), before);
}

TEST(ModelRegistry, SwapBumpsVersionAndChangesAnswers) {
  const std::string a = save_model("registry_swap_a.bin", 21);
  const std::string b = save_model("registry_swap_b.bin", 22);
  ModelRegistry registry;
  ASSERT_TRUE(registry.load(a, kGrid).ok());
  const std::shared_ptr<ServableModel> model_a = registry.active();
  ASSERT_TRUE(registry.load(b, kGrid).ok());
  const std::shared_ptr<ServableModel> model_b = registry.active();
  EXPECT_NE(model_a, model_b);
  EXPECT_EQ(model_a->version(), 1u);
  EXPECT_EQ(model_b->version(), 2u);
  EXPECT_EQ(registry.version(), 2u);
  // The old handle keeps answering with the old weights — an in-flight
  // batch that resolved before the swap is unaffected by it.
  EXPECT_EQ(model_a->predict(probe_batch(3)),
            model_a->predict(probe_batch(3)));
}

TEST(ModelRegistry, PlanIsCompiledAtLoadNotOnFirstPredict) {
  const std::string a = save_model("registry_compile_a.bin", 41);
  const std::string b = save_model("registry_compile_b.bin", 42);
  const bool was_tracing = obs::trace_enabled();
  obs::set_trace_enabled(true);
  ModelRegistry registry;
  // The first load, then a hot swap: neither leaves the inference plan's
  // compile to the first request on the batch worker.
  for (const std::string& path : {a, b}) {
    ASSERT_TRUE(registry.load(path, kGrid).ok());
    obs::reset_spans();
    registry.active()->predict(probe_batch(5));
    const obs::SpanReport spans = obs::collect_span_report();
    EXPECT_NE(spans.find("brnn.forward"), nullptr) << path;
    EXPECT_EQ(spans.find("brnn.compile_plan"), nullptr) << path;
  }
  obs::set_trace_enabled(was_tracing);
}

TEST(ModelRegistry, StateFileRestoresAfterRestart) {
  const std::string model_path = save_model("registry_persist.bin", 31);
  const std::string state_path = temp_path("registry_state.json");
  std::remove(state_path.c_str());
  std::vector<int> reference;
  {
    ModelRegistry registry(state_path);
    ASSERT_TRUE(registry.load(model_path, kGrid).ok());
    reference = registry.active()->predict(probe_batch(4));
    EXPECT_EQ(registry.version(), 1u);
  }
  // "Restart": a fresh registry pointed at the same state file resumes
  // serving the same model at a version that keeps ascending.
  {
    ModelRegistry registry(state_path);
    ASSERT_TRUE(registry.restore().ok());
    ASSERT_NE(registry.active(), nullptr);
    EXPECT_EQ(registry.active()->path(), model_path);
    EXPECT_GE(registry.version(), 1u);
    EXPECT_EQ(registry.active()->predict(probe_batch(4)), reference);
  }
}

TEST(ModelRegistry, RestoreWithoutStateIsMissing) {
  ModelRegistry no_persistence;
  EXPECT_EQ(no_persistence.restore().status, nn::IoStatus::kMissing);
  ModelRegistry registry(temp_path("registry_never_written.json"));
  EXPECT_EQ(registry.restore().status, nn::IoStatus::kMissing);
}

TEST(ModelRegistry, HotSwapUnderConcurrentPredictIsNeverTorn) {
  // The acceptance test for swap atomicity: reader threads hammer
  // active()->predict while the main thread swaps between two archives.
  // Every single result must equal one of the two reference outputs —
  // a torn model would (generically) produce a third answer or crash.
  const std::string a = save_model("registry_hammer_a.bin", 41);
  const std::string b = save_model("registry_hammer_b.bin", 42);
  ModelRegistry registry;
  ASSERT_TRUE(registry.load(a, kGrid).ok());
  const Tensor probe = probe_batch(5, 2);
  const std::vector<int> ref_a = registry.active()->predict(probe);
  ASSERT_TRUE(registry.load(b, kGrid).ok());
  const std::vector<int> ref_b = registry.active()->predict(probe);
  ASSERT_TRUE(registry.load(a, kGrid).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<std::uint64_t> predictions{0};
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::shared_ptr<ServableModel> model = registry.active();
        const std::vector<int> labels = model->predict(probe);
        if (labels != ref_a && labels != ref_b) {
          ++torn;
        }
        ++predictions;
      }
    });
  }
  // At least six swaps, and keep hammering until a reader has actually
  // raced a predict against one — on a loaded machine the readers may not
  // be scheduled until well after a fixed swap count would have finished.
  for (int swap = 0; swap < 6 || predictions.load() == 0; ++swap) {
    ASSERT_TRUE(registry.load(swap % 2 == 0 ? b : a, kGrid).ok());
  }
  ASSERT_TRUE(registry.load(a, kGrid).ok());
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(predictions.load(), 0u);
  // The hammer ends on archive `a`: the published model answers ref_a.
  EXPECT_EQ(registry.active()->predict(probe), ref_a);
}

}  // namespace
}  // namespace hotspot::serve
