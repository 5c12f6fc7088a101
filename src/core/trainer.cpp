#include "core/trainer.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/lr_scheduler.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace hotspot::core {
namespace {

// Share of the dataset held out for the plateau scheduler.
constexpr double kValidationFraction = 0.1;
// Global L2 gradient-norm ceiling applied before every update.
constexpr double kGradClip = 5.0;

// Per-epoch training health, readable by any attached exporter. Gauges hold
// the latest epoch; the counters in run_epoch accumulate across epochs.
void publish_epoch_metrics(const EpochStats& stats) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.counter("trainer.epochs").increment();
  registry.gauge("trainer.epoch").set(stats.epoch);
  registry.gauge("trainer.train_loss").set(stats.train_loss);
  registry.gauge("trainer.validation_loss").set(stats.validation_loss);
  registry.gauge("trainer.learning_rate").set(stats.learning_rate);
  registry.gauge("trainer.finetune_phase").set(stats.finetune ? 1.0 : 0.0);
  registry
      .histogram("trainer.epoch_seconds", obs::default_duration_buckets())
      .observe(stats.epoch_seconds);
}

}  // namespace

BatchBuilder image_batch_builder() {
  return [](const dataset::HotspotDataset& data,
            const std::vector<std::size_t>& indices,
            util::Rng* augment_rng) {
    return data.batch_images(indices, augment_rng);
  };
}

Trainer::Trainer(nn::Module& model, const TrainerConfig& config,
                 BatchBuilder batch_builder)
    : model_(model),
      config_(config),
      batch_builder_(std::move(batch_builder)),
      optimizer_(model.parameters(), config.learning_rate),
      rng_(config.seed) {
  HOTSPOT_CHECK_GT(config.batch_size, 0);
  HOTSPOT_CHECK_GE(config.epochs, 0);
  HOTSPOT_CHECK_GE(config.finetune_epochs, 0);
}

void Trainer::run_epoch(const dataset::HotspotDataset& data,
                        const std::vector<std::size_t>& indices,
                        float bias_epsilon, util::Rng& rng,
                        EpochStats& stats) {
  static obs::Counter& step_counter =
      obs::MetricsRegistry::global().counter("trainer.steps");
  static obs::Counter& skipped_batch_counter =
      obs::MetricsRegistry::global().counter("trainer.skipped_batches");
  static obs::Histogram& batch_histogram =
      obs::MetricsRegistry::global().histogram(
          "trainer.batch_seconds", obs::default_latency_buckets());
  HOTSPOT_TRACE_SPAN("trainer.epoch");
  model_.set_training(true);
  std::vector<std::size_t> order = indices;
  rng.shuffle(order);
  double total_loss = 0.0;
  std::int64_t batches = 0;
  for (std::size_t begin = 0; begin < order.size();
       begin += static_cast<std::size_t>(config_.batch_size)) {
    const std::size_t end = std::min(
        order.size(), begin + static_cast<std::size_t>(config_.batch_size));
    const std::vector<std::size_t> batch(order.begin() + begin,
                                         order.begin() + end);
    HOTSPOT_TRACE_SPAN("trainer.batch");
    util::Stopwatch batch_timer;
    util::Rng* augment = config_.augment ? &rng : nullptr;
    const tensor::Tensor images = batch_builder_(data, batch, augment);
    const tensor::Tensor targets =
        nn::make_targets(data.batch_labels(batch), bias_epsilon);

    const tensor::Tensor logits = model_.forward(images);
    const double batch_loss = loss_.forward(logits, targets);

    // NaN/Inf guard: a non-finite loss or gradient norm drops the update.
    // The norm pass is the one gradient clipping needs anyway.
    bool healthy = std::isfinite(batch_loss);
    double norm = 0.0;
    if (healthy) {
      model_.zero_grad();
      model_.backward(loss_.gradient());
      norm = optimizer_.grad_norm();
      healthy = std::isfinite(norm);
    }
    if (!healthy) {
      ++stats.skipped_batches;
      skipped_batch_counter.increment();
      if (config_.verbose) {
        HOTSPOT_LOG(kWarning)
            << "non-finite " << (std::isfinite(batch_loss) ? "gradients" : "loss")
            << " in epoch " << stats.epoch << "; update dropped";
      }
      batch_histogram.observe(batch_timer.seconds());
      continue;
    }

    total_loss += batch_loss;
    ++batches;
    if (norm > kGradClip) {
      optimizer_.scale_gradients(static_cast<float>(kGradClip / norm));
    }
    optimizer_.step();
    ++stats.steps;
    step_counter.increment();
    batch_histogram.observe(batch_timer.seconds());
  }
  stats.train_loss =
      batches == 0 ? 0.0 : total_loss / static_cast<double>(batches);
}

double Trainer::evaluate_loss(const dataset::HotspotDataset& data,
                              const std::vector<std::size_t>& indices) {
  if (indices.empty()) {
    return 0.0;
  }
  HOTSPOT_TRACE_SPAN("trainer.validation");
  model_.set_training(false);
  double total_loss = 0.0;
  std::int64_t batches = 0;
  for (std::size_t begin = 0; begin < indices.size();
       begin += static_cast<std::size_t>(config_.batch_size)) {
    const std::size_t end = std::min(
        indices.size(), begin + static_cast<std::size_t>(config_.batch_size));
    const std::vector<std::size_t> batch(indices.begin() + begin,
                                         indices.begin() + end);
    const tensor::Tensor images = batch_builder_(data, batch, nullptr);
    const tensor::Tensor targets =
        nn::make_targets(data.batch_labels(batch), 0.0f);
    const tensor::Tensor logits = model_.forward(images);
    total_loss += tensor::softmax_cross_entropy(logits, targets, nullptr);
    ++batches;
  }
  model_.set_training(true);
  return total_loss / static_cast<double>(batches);
}

std::vector<EpochStats> Trainer::train(const dataset::HotspotDataset& data) {
  HOTSPOT_CHECK(!data.empty()) << "cannot train on an empty dataset";
  // Split off a validation slice for the plateau scheduler.
  const std::vector<std::size_t> all = data.all_indices(&rng_);
  const auto validation_count = static_cast<std::size_t>(
      static_cast<double>(all.size()) * kValidationFraction);
  const std::vector<std::size_t> validation(all.begin(),
                                            all.begin() + validation_count);
  std::vector<std::size_t> training(all.begin() + validation_count, all.end());
  HOTSPOT_CHECK_GE(config_.hotspot_oversample, 1);
  if (config_.hotspot_oversample > 1) {
    const std::size_t base_count = training.size();
    for (std::size_t i = 0; i < base_count; ++i) {
      if (data.sample(training[i]).label == 1) {
        for (int copy = 1; copy < config_.hotspot_oversample; ++copy) {
          training.push_back(training[i]);
        }
      }
    }
  }

  optim::PlateauDecay scheduler(optimizer_);
  std::vector<EpochStats> history;

  auto run_phase = [&](int phase_start, int epochs, float bias,
                       bool finetune) {
    for (int epoch = 0; epoch < epochs; ++epoch) {
      EpochStats stats;
      stats.epoch = phase_start + epoch;
      stats.finetune = finetune;
      util::Stopwatch epoch_timer;
      run_epoch(data, training, bias, rng_, stats);
      stats.validation_loss = validation.empty()
                                  ? stats.train_loss
                                  : evaluate_loss(data, validation);
      stats.epoch_seconds = epoch_timer.seconds();
      scheduler.observe(stats.validation_loss);
      stats.learning_rate = optimizer_.learning_rate();
      publish_epoch_metrics(stats);
      if (config_.verbose) {
        HOTSPOT_LOG(kInfo) << (finetune ? "finetune" : "train") << " epoch "
                           << stats.epoch << ": loss=" << stats.train_loss
                           << " val=" << stats.validation_loss
                           << " lr=" << stats.learning_rate;
      }
      history.push_back(stats);
    }
  };

  // Main phase with hard labels (Algorithm 1), then the biased finetune
  // (Sec. 3.4.3).
  run_phase(0, config_.epochs, 0.0f, /*finetune=*/false);
  run_phase(config_.epochs, config_.finetune_epochs, config_.bias_epsilon,
            /*finetune=*/true);
  model_.set_training(false);
  return history;
}

std::vector<int> predict_labels(nn::Module& model,
                                const dataset::HotspotDataset& data,
                                int batch_size,
                                const BatchBuilder& batch_builder) {
  HOTSPOT_CHECK_GT(batch_size, 0);
  model.set_training(false);
  const std::vector<std::size_t> all = data.all_indices();
  std::vector<int> labels(all.size());
  for (std::size_t begin = 0; begin < all.size();
       begin += static_cast<std::size_t>(batch_size)) {
    const std::size_t end =
        std::min(all.size(), begin + static_cast<std::size_t>(batch_size));
    const std::vector<std::size_t> batch(all.begin() + begin,
                                         all.begin() + end);
    const tensor::Tensor logits =
        model.forward(batch_builder(data, batch, nullptr));
    const std::vector<std::int64_t> best = tensor::argmax_rows(logits);
    for (std::size_t row = 0; row < best.size(); ++row) {
      labels[begin + row] = static_cast<int>(best[row]);
    }
  }
  return labels;
}

}  // namespace hotspot::core
