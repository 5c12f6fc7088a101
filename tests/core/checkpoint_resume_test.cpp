// Crash-safety guarantees of checkpoints and the training loop:
//  * a model-only load reads the model out of an archive that also carries
//    trailing tensors and a blob,
//  * a simulated crash at any injected failure point during a checkpoint
//    save leaves a fully loadable file (old or new, never torn),
//  * the numeric-health guard drops the update of every NaN/Inf batch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "nn/activation_layers.h"
#include "nn/linear_layer.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "support/test_support.h"
#include "util/fault_injection.h"

namespace hotspot::core {
namespace {

using tensor::Tensor;
using test_support::test_path;

// Same easy task the trainer tests use: label = "more than half the pixels
// set"; learnable by a linear probe in a few epochs.
dataset::HotspotDataset coverage_dataset(std::size_t count, util::Rng& rng) {
  dataset::HotspotDataset data;
  for (std::size_t i = 0; i < count; ++i) {
    Tensor image({8, 8});
    const double density = rng.uniform(0.0, 1.0);
    for (std::int64_t p = 0; p < image.numel(); ++p) {
      image[p] = rng.bernoulli(density) ? 1.0f : 0.0f;
    }
    const int label = image.sum() > 32.0 ? 1 : 0;
    data.add(dataset::ClipSample::from_image(image, label,
                                             dataset::Family::kContacts));
  }
  return data;
}

nn::Sequential linear_probe(std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Sequential net;
  net.emplace<nn::Flatten>();
  net.emplace<nn::Linear>(64, 2, rng);
  return net;
}

std::vector<float> flat_state(nn::Module& net) {
  std::vector<nn::NamedTensor> state;
  net.collect_state("", state);
  std::vector<float> values;
  for (const auto& entry : state) {
    const float* data = entry.value->data();
    values.insert(values.end(), data, data + entry.value->numel());
  }
  return values;
}

std::vector<nn::NamedBlob> one_blob(const char* name, std::size_t size) {
  std::vector<nn::NamedBlob> blobs(1);
  blobs[0].name = name;
  blobs[0].bytes.assign(size, 0x5a);
  return blobs;
}

TEST(CheckpointResume, ModelOnlyLoadReadsTrainingCheckpoint) {
  // Deployment path: load_checkpoint() must be able to pull just the model
  // tensors out of an archive shaped like a training snapshot (the model's
  // tensors, then NAdam-shaped moment tensors, then a metadata blob); the
  // trailing tensors and the blob are checked and skipped.
  nn::Sequential net = linear_probe(1);
  std::vector<nn::NamedTensor> tensors;
  net.collect_state("", tensors);
  const std::vector<nn::Parameter*> params = net.parameters();
  std::vector<Tensor> moments;
  moments.reserve(2 * params.size());  // `tensors` points into it
  for (std::size_t p = 0; p < params.size(); ++p) {
    moments.emplace_back(params[p]->value.shape(), 0.125f);
    tensors.push_back({"nadam.m." + std::to_string(p), &moments.back()});
    moments.emplace_back(params[p]->value.shape(), 0.5f);
    tensors.push_back({"nadam.v." + std::to_string(p), &moments.back()});
  }
  const std::string path = test_path("deployable.ckpt");
  ASSERT_TRUE(nn::save_archive(path, tensors, one_blob("trainer_state", 64))
                  .ok());

  nn::Sequential fresh = linear_probe(33);
  ASSERT_NE(flat_state(net), flat_state(fresh));
  const nn::LoadResult loaded = nn::load_checkpoint(path, fresh);
  ASSERT_TRUE(loaded.ok()) << loaded.message;
  EXPECT_EQ(flat_state(net), flat_state(fresh));
}

// --- Fault-injection: atomicity of checkpoint saves ---------------------

TEST(CheckpointFaultInjection, EveryWriteInterruptionLeavesOldFileIntact) {
  util::ScopedFaultInjection guard;
  const std::string path = test_path("fault_atomic.ckpt");

  Tensor old_value({4, 4}, 1.5f);
  Tensor new_value({4, 4}, -2.25f);
  const std::vector<nn::NamedTensor> old_tensors = {{"w", &old_value}};
  const std::vector<nn::NamedTensor> new_tensors = {{"w", &new_value}};
  const auto blobs = one_blob("meta", 256);

  ASSERT_TRUE(nn::save_archive(path, old_tensors, blobs).ok());

  // Discover how many write() calls one save issues, then crash at each.
  util::fault_clear_all();
  ASSERT_TRUE(nn::save_archive(test_path("fault_probe.ckpt"), new_tensors,
                               blobs)
                  .ok());
  const int write_probes =
      util::fault_probe_count(util::FaultPoint::kCheckpointWrite);
  ASSERT_GT(write_probes, 4);

  for (int countdown = 1; countdown <= write_probes; ++countdown) {
    util::fault_clear_all();
    util::fault_arm(util::FaultPoint::kCheckpointWrite, countdown);
    const nn::SaveResult result = nn::save_archive(path, new_tensors, blobs);
    EXPECT_EQ(result.status, util::IoStatus::kWriteFailed)
        << "countdown " << countdown;
    EXPECT_EQ(util::fault_trip_count(util::FaultPoint::kCheckpointWrite), 1);

    // The published file must still be the complete old version.
    util::fault_clear_all();
    Tensor reloaded({4, 4});
    const std::vector<nn::NamedTensor> into = {{"w", &reloaded}};
    auto reread = one_blob("meta", 0);
    const nn::LoadResult loaded = nn::load_archive(path, into, &reread);
    ASSERT_TRUE(loaded.ok()) << "countdown " << countdown << ": "
                             << loaded.message;
    for (std::int64_t i = 0; i < reloaded.numel(); ++i) {
      ASSERT_EQ(reloaded[i], 1.5f);
    }
    ASSERT_EQ(reread[0].bytes.size(), 256u);
  }
}

TEST(CheckpointFaultInjection, FlushAndRenameFaultsLeaveOldFileIntact) {
  util::ScopedFaultInjection guard;
  const std::string path = test_path("fault_flush_rename.ckpt");

  Tensor old_value({8}, 3.0f);
  Tensor new_value({8}, 4.0f);
  const std::vector<nn::NamedTensor> old_tensors = {{"w", &old_value}};
  const std::vector<nn::NamedTensor> new_tensors = {{"w", &new_value}};
  ASSERT_TRUE(nn::save_tensors(path, old_tensors).ok());

  for (const auto point : {util::FaultPoint::kCheckpointFlush,
                           util::FaultPoint::kCheckpointRename}) {
    util::fault_clear_all();
    util::fault_arm(point, 1);
    const nn::SaveResult result = nn::save_tensors(path, new_tensors);
    EXPECT_EQ(result.status, util::IoStatus::kWriteFailed)
        << util::fault_point_name(point);
    EXPECT_EQ(util::fault_trip_count(point), 1);

    util::fault_clear_all();
    Tensor reloaded({8});
    const std::vector<nn::NamedTensor> into = {{"w", &reloaded}};
    ASSERT_TRUE(nn::load_tensors(path, into).ok());
    for (std::int64_t i = 0; i < reloaded.numel(); ++i) {
      ASSERT_EQ(reloaded[i], 3.0f);
    }
  }

  // With faults cleared the next save publishes the new version atomically.
  util::fault_clear_all();
  ASSERT_TRUE(nn::save_tensors(path, new_tensors).ok());
  Tensor reloaded({8});
  const std::vector<nn::NamedTensor> into = {{"w", &reloaded}};
  ASSERT_TRUE(nn::load_tensors(path, into).ok());
  EXPECT_EQ(reloaded[0], 4.0f);
}

TEST(CheckpointFaultInjection, FirstSaveFailureLeavesNoFileBehind) {
  util::ScopedFaultInjection guard;
  const std::string path = test_path("fault_first_save.ckpt");
  std::remove(path.c_str());
  Tensor value({4}, 1.0f);
  const std::vector<nn::NamedTensor> tensors = {{"w", &value}};

  util::fault_arm(util::FaultPoint::kCheckpointRename, 1);
  EXPECT_FALSE(nn::save_tensors(path, tensors).ok());
  EXPECT_EQ(util::file_size_of(path), -1);
  EXPECT_EQ(util::file_size_of(path + ".tmp"), -1)
      << "temp file must not litter the checkpoint directory";
}

// --- Numeric-health guard ----------------------------------------------

// Wraps the default builder; poisons the images of chosen training batches
// (validation and inference pass a null augment rng and stay clean).
BatchBuilder poisoning_builder(std::vector<int> poisoned_calls) {
  auto calls = std::make_shared<int>(0);
  auto poison = std::make_shared<std::vector<int>>(std::move(poisoned_calls));
  return [calls, poison](const dataset::HotspotDataset& data,
                         const std::vector<std::size_t>& indices,
                         util::Rng* augment_rng) {
    tensor::Tensor images = data.batch_images(indices, augment_rng);
    if (augment_rng != nullptr) {
      const int call = (*calls)++;
      for (const int target : *poison) {
        if (call == target) {
          images.fill(std::numeric_limits<float>::quiet_NaN());
        }
      }
    }
    return images;
  };
}

TrainerConfig guard_config() {
  TrainerConfig config;
  config.epochs = 3;
  config.finetune_epochs = 0;
  config.learning_rate = 0.05f;
  config.seed = 5;
  return config;
}

TEST(NumericHealth, SkipBatchContainsNaNAndReportsIt) {
  util::Rng data_rng(11);
  const auto data = coverage_dataset(100, data_rng);
  nn::Sequential net = linear_probe(1);
  Trainer trainer(net, guard_config(), poisoning_builder({1, 4}));
  const auto history = trainer.train(data);

  int skipped = 0;
  for (const auto& stats : history) {
    skipped += stats.skipped_batches;
    EXPECT_TRUE(std::isfinite(stats.train_loss));
    EXPECT_TRUE(std::isfinite(stats.validation_loss));
  }
  EXPECT_EQ(skipped, 2);
  for (const float value : flat_state(net)) {
    ASSERT_TRUE(std::isfinite(value));
  }
}

}  // namespace
}  // namespace hotspot::core
