// A training snapshot whose archive CRC is valid but whose trainer_state
// blob lies. Every count in the blob is checked against the bytes that
// follow it before it sizes anything, and a refused snapshot leaves the
// trainer exactly as it was: weights, optimizer, RNG stream and split.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "nn/activation_layers.h"
#include "nn/linear_layer.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "optim/nadam.h"
#include "support/test_support.h"
#include "util/bytes.h"

namespace hotspot::core {
namespace {

using tensor::Tensor;
using test_support::test_path;

// Encoded size of one trainer_state history entry.
constexpr std::size_t kEpochStatsBytes = 4 + 1 + 8 + 8 + 4 + 4 + 4;

dataset::HotspotDataset coverage_dataset(std::size_t count, util::Rng& rng) {
  dataset::HotspotDataset data;
  for (std::size_t i = 0; i < count; ++i) {
    Tensor image({8, 8});
    const double density = rng.uniform(0.0, 1.0);
    for (std::int64_t p = 0; p < image.numel(); ++p) {
      image[p] = rng.bernoulli(density) ? 1.0f : 0.0f;
    }
    data.add(dataset::ClipSample::from_image(image, image.sum() > 32.0 ? 1 : 0,
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
    values.insert(values.end(), entry.value->data(),
                  entry.value->data() + entry.value->numel());
  }
  return values;
}

TEST(CheckpointResume, LyingTrainerStateIsCorrupt) {
  util::Rng data_rng(8);
  const auto data = coverage_dataset(24, data_rng);
  TrainerConfig config;
  config.epochs = 2;
  config.finetune_epochs = 1;
  config.learning_rate = 0.05f;
  config.seed = 17;

  // A real run's final snapshot.
  TrainerConfig real = config;
  real.checkpoint_path = test_path("real.ckpt");
  {
    nn::Sequential net = linear_probe(1);
    Trainer(net, real).train(data);
  }
  nn::Sequential carrier = linear_probe(2);
  optim::NAdam carrier_moments(carrier.parameters(), config.learning_rate);
  std::vector<nn::NamedTensor> tensors;
  carrier.collect_state("", tensors);
  for (const nn::NamedTensor& slot : carrier_moments.state().slots) {
    tensors.push_back(slot);
  }
  std::vector<nn::NamedBlob> blobs = {{"trainer_state", {}}};
  ASSERT_TRUE(nn::load_archive(real.checkpoint_path, tensors, &blobs).ok());
  const std::vector<std::uint8_t>& blob = blobs[0].bytes;

  // (a) every proper prefix of the real blob; (b) the blob cut at its
  // history count, which now claims 2^20 entries and has none.
  std::vector<std::vector<std::uint8_t>> lies;
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    lies.emplace_back(blob.begin(), blob.begin() + cut);
  }
  const std::size_t history = 3;  // epochs + finetune_epochs
  ASSERT_GT(blob.size(), history * kEpochStatsBytes + 8);
  const std::size_t count_at = blob.size() - history * kEpochStatsBytes - 8;
  ASSERT_EQ(util::load_le<std::uint64_t>(blob.data() + count_at), history);
  lies.push_back(util::ByteWriter()
                     .bytes(blob.data(), count_at)
                     .put(std::uint64_t{1} << 20)
                     .take());

  nn::Sequential net = linear_probe(3);
  Trainer trainer(net, config);
  const std::vector<float> before = flat_state(net);
  const std::string path = test_path("lying.ckpt");
  for (std::size_t i = 0; i < lies.size(); ++i) {
    ASSERT_TRUE(
        nn::save_archive(path, tensors, {{"trainer_state", lies[i]}}).ok());
    const nn::LoadResult result = trainer.resume_from(path);
    ASSERT_EQ(result.status, util::IoStatus::kCorrupt)
        << "lie " << i << " of " << lies.size() << ": " << result.message;
    ASSERT_EQ(flat_state(net), before) << "lie " << i;
    ASSERT_EQ(trainer.best_validation_loss(),
              std::numeric_limits<double>::infinity());
    ASSERT_TRUE(trainer.last_checkpoint_path().empty());
  }

  // Untouched all the way down: it trains exactly like a trainer that never
  // saw a lie.
  nn::Sequential reference_net = linear_probe(3);
  Trainer reference(reference_net, config);
  const std::vector<EpochStats> expected = reference.train(data);
  const std::vector<EpochStats> actual = trainer.train(data);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t e = 0; e < expected.size(); ++e) {
    EXPECT_EQ(actual[e].train_loss, expected[e].train_loss) << "epoch " << e;
    EXPECT_EQ(actual[e].validation_loss, expected[e].validation_loss);
    EXPECT_EQ(actual[e].learning_rate, expected[e].learning_rate);
  }
  EXPECT_EQ(flat_state(net), flat_state(reference_net));
}

}  // namespace
}  // namespace hotspot::core
