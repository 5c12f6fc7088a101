#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "util/bytes.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace hotspot::core {
namespace {

constexpr char kTrainerStateBlob[] = "trainer_state";
constexpr std::uint32_t kTrainerStateVersion = 1;
// Encoded size of one history entry: epoch, finetune flag, both losses,
// learning rate, numeric events, skipped batches.
constexpr std::size_t kEpochStatsBytes = 4 + 1 + 8 + 8 + 4 + 4 + 4;

// Length-prefixed index list.
void encode_indices(util::ByteWriter& writer,
                 const std::vector<std::size_t>& list) {
  writer.length<std::uint64_t>(list.size());
  for (const std::size_t index : list) {
    writer.put(static_cast<std::uint64_t>(index));
  }
}

bool decode_indices(util::ByteReader& reader, std::vector<std::size_t>& list) {
  std::uint64_t count = 0;
  if (!reader.read(&count) || !reader.fits(count, sizeof(std::uint64_t))) {
    return false;
  }
  list.resize(static_cast<std::size_t>(count));
  for (std::size_t& index : list) {
    std::uint64_t value = 0;
    if (!reader.read(&value)) {
      return false;
    }
    index = static_cast<std::size_t>(value);
  }
  return true;
}

// Everything the metadata blob carries besides the tensors. The split index
// lists travel with the checkpoint because the original split consumed
// training-stream draws: storing the result (instead of replaying the
// draws) is what lets a resumed run continue the restored RNG stream
// bit-for-bit.
struct TrainerStateBlob {
  util::RngState rng;
  std::int64_t optimizer_step = 0;
  float learning_rate = 0.0f;
  optim::PlateauDecay::State scheduler;
  double best_validation_loss = 0.0;
  std::vector<std::size_t> validation_indices;
  std::vector<std::size_t> training_indices;  // pre-oversample base list
  std::vector<EpochStats> history;
};

// Scalars are stored bit-exact (little-endian IEEE floats), which the
// resume-determinism guarantee depends on.
std::vector<std::uint8_t> encode_trainer_state(const TrainerStateBlob& state) {
  util::ByteWriter writer;
  writer.put(kTrainerStateVersion);
  for (const std::uint64_t word : state.rng.words) {
    writer.put(word);
  }
  writer.put(state.rng.spare_normal)
      .put(static_cast<std::uint8_t>(state.rng.has_spare_normal))
      .put(state.optimizer_step)
      .put(state.learning_rate)
      .put(state.scheduler.best_metric)
      .put(static_cast<std::int32_t>(state.scheduler.stall_count))
      .put(state.best_validation_loss);
  encode_indices(writer, state.validation_indices);
  encode_indices(writer, state.training_indices);
  writer.length<std::uint64_t>(state.history.size());
  for (const EpochStats& stats : state.history) {
    writer.put(static_cast<std::int32_t>(stats.epoch))
        .put(static_cast<std::uint8_t>(stats.finetune))
        .put(stats.train_loss)
        .put(stats.validation_loss)
        .put(stats.learning_rate)
        .put(static_cast<std::int32_t>(stats.numeric_events))
        .put(static_cast<std::int32_t>(stats.skipped_batches));
  }
  return writer.take();
}

// Every count is checked against the bytes that follow it before it sizes
// a container, so a CRC-valid blob with a lying count fails here instead of
// allocating what the count claims.
bool decode_trainer_state(const std::vector<std::uint8_t>& bytes,
                          TrainerStateBlob& state) {
  util::ByteReader reader(bytes);
  std::uint32_t version = 0;
  if (!reader.read(&version) || version != kTrainerStateVersion) {
    return false;
  }
  for (std::uint64_t& word : state.rng.words) {
    if (!reader.read(&word)) {
      return false;
    }
  }
  std::uint8_t has_spare = 0;
  std::int32_t stall_count = 0;
  if (!reader.read(&state.rng.spare_normal) || !reader.read(&has_spare) ||
      !reader.read(&state.optimizer_step) ||
      !reader.read(&state.learning_rate) ||
      !reader.read(&state.scheduler.best_metric) ||
      !reader.read(&stall_count) || !reader.read(&state.best_validation_loss)) {
    return false;
  }
  // xoshiro256** cannot run from an all-zero state.
  if (std::all_of(std::begin(state.rng.words), std::end(state.rng.words),
                  [](std::uint64_t word) { return word == 0; })) {
    return false;
  }
  state.rng.has_spare_normal = has_spare != 0;
  state.scheduler.stall_count = stall_count;
  if (!decode_indices(reader, state.validation_indices) ||
      !decode_indices(reader, state.training_indices)) {
    return false;
  }
  std::uint64_t count = 0;
  if (!reader.read(&count) || !reader.fits(count, kEpochStatsBytes)) {
    return false;
  }
  state.history.resize(static_cast<std::size_t>(count));
  for (EpochStats& stats : state.history) {
    std::int32_t epoch = 0, numeric_events = 0, skipped = 0;
    std::uint8_t finetune = 0;
    if (!reader.read(&epoch) || !reader.read(&finetune) ||
        !reader.read(&stats.train_loss) ||
        !reader.read(&stats.validation_loss) ||
        !reader.read(&stats.learning_rate) || !reader.read(&numeric_events) ||
        !reader.read(&skipped)) {
      return false;
    }
    stats.epoch = epoch;
    stats.finetune = finetune != 0;
    stats.numeric_events = numeric_events;
    stats.skipped_batches = skipped;
  }
  return reader.exhausted();
}

// The tensor section of a training snapshot: the model's state, then the
// optimizer's moment slots.
std::vector<nn::NamedTensor> snapshot_tensors(
    nn::Module& model, const optim::OptimizerState& optimizer_state) {
  std::vector<nn::NamedTensor> tensors;
  model.collect_state("", tensors);
  tensors.insert(tensors.end(), optimizer_state.slots.begin(),
                 optimizer_state.slots.end());
  return tensors;
}

// Reads the snapshot at `path` into scratch tensors shaped like `live` and
// decodes its trainer_state blob. `live` is not written; commit_tensors()
// does that once every check has passed, so a damaged snapshot leaves the
// trainer untouched.
nn::LoadResult read_snapshot(const std::string& path,
                             const std::vector<nn::NamedTensor>& live,
                             std::vector<tensor::Tensor>& loaded,
                             TrainerStateBlob& state) {
  loaded.clear();
  loaded.reserve(live.size());
  std::vector<nn::NamedTensor> into;
  into.reserve(live.size());
  for (const nn::NamedTensor& entry : live) {
    loaded.emplace_back(entry.value->shape());
    into.push_back({entry.name, &loaded.back()});
  }
  std::vector<nn::NamedBlob> blobs(1);
  blobs[0].name = kTrainerStateBlob;
  nn::LoadResult result = nn::load_archive(path, into, &blobs);
  if (result.ok() && !decode_trainer_state(blobs[0].bytes, state)) {
    result = nn::LoadResult::failure(
        util::IoStatus::kCorrupt, path + ": undecodable trainer state blob");
  }
  return result;
}

void commit_tensors(const std::vector<nn::NamedTensor>& live,
                    const std::vector<tensor::Tensor>& loaded) {
  for (std::size_t i = 0; i < live.size(); ++i) {
    std::copy(loaded[i].data(), loaded[i].data() + loaded[i].numel(),
              live[i].value->data());
  }
}

}  // namespace

namespace {

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
  HOTSPOT_CHECK(config.validation_fraction >= 0.0 &&
                config.validation_fraction < 1.0)
      << "validation fraction " << config.validation_fraction;
  if (!config.checkpoint_path.empty()) {
    HOTSPOT_CHECK_GE(config.checkpoint_every, 1);
  }
}

void Trainer::run_epoch(const dataset::HotspotDataset& data,
                        const std::vector<std::size_t>& indices,
                        float bias_epsilon, util::Rng& rng,
                        EpochStats& stats) {
  static obs::Counter& step_counter =
      obs::MetricsRegistry::global().counter("trainer.steps");
  static obs::Counter& numeric_event_counter =
      obs::MetricsRegistry::global().counter("trainer.numeric_events");
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
      ++stats.numeric_events;
      ++stats.skipped_batches;
      numeric_event_counter.increment();
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
    if (config_.grad_clip > 0.0 && norm > config_.grad_clip) {
      optimizer_.scale_gradients(
          static_cast<float>(config_.grad_clip / norm));
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

nn::SaveResult Trainer::save_training_checkpoint(
    const std::string& path, const optim::PlateauDecay& scheduler,
    const std::vector<EpochStats>& history) {
  const optim::OptimizerState optimizer_state = optimizer_.state();
  TrainerStateBlob state;
  state.rng = rng_.save_state();
  state.optimizer_step = optimizer_state.step_count;
  state.learning_rate = optimizer_state.learning_rate;
  state.scheduler = scheduler.state();
  state.best_validation_loss = best_validation_loss_;
  state.validation_indices = split_validation_;
  state.training_indices = split_training_;
  state.history = history;

  std::vector<nn::NamedBlob> blobs(1);
  blobs[0].name = kTrainerStateBlob;
  blobs[0].bytes = encode_trainer_state(state);
  return nn::save_archive(path, snapshot_tensors(model_, optimizer_state),
                          blobs);
}

nn::LoadResult Trainer::resume_from(const std::string& path) {
  optim::OptimizerState optimizer_state = optimizer_.state();
  const std::vector<nn::NamedTensor> live =
      snapshot_tensors(model_, optimizer_state);
  std::vector<tensor::Tensor> loaded;
  TrainerStateBlob state;
  const nn::LoadResult result = read_snapshot(path, live, loaded, state);
  if (!result.ok()) {
    return result;
  }
  if (state.history.size() >
      static_cast<std::size_t>(config_.epochs + config_.finetune_epochs)) {
    return nn::LoadResult::failure(
        util::IoStatus::kMismatch,
        path + ": checkpoint has more epochs than the configured schedule");
  }

  commit_tensors(live, loaded);
  rng_.load_state(state.rng);
  optimizer_state.step_count = state.optimizer_step;
  optimizer_state.learning_rate = state.learning_rate;
  optimizer_.load_state(optimizer_state);
  scheduler_state_ = state.scheduler;
  have_scheduler_state_ = true;
  best_validation_loss_ = state.best_validation_loss;
  split_validation_ = std::move(state.validation_indices);
  split_training_ = std::move(state.training_indices);
  resume_history_ = std::move(state.history);
  resumed_ = true;
  last_checkpoint_ = path;
  // The tensors were written in place; weight-derived caches must refresh.
  for (nn::Parameter* param : model_.parameters()) {
    param->bump_version();
  }
  return result;
}

std::vector<EpochStats> Trainer::train(const dataset::HotspotDataset& data) {
  HOTSPOT_CHECK(!data.empty()) << "cannot train on an empty dataset";
  // Split off a validation slice for the plateau scheduler. A resumed run
  // reuses the checkpointed split instead of re-drawing it: the original
  // draw already advanced the training stream, and replaying it against the
  // restored stream would desynchronize every epoch after the checkpoint.
  if (resumed_) {
    for (const std::size_t index : split_validation_) {
      HOTSPOT_CHECK(index < data.size())
          << "checkpoint split index " << index
          << " out of range; resumed against a different dataset?";
    }
    for (const std::size_t index : split_training_) {
      HOTSPOT_CHECK(index < data.size())
          << "checkpoint split index " << index
          << " out of range; resumed against a different dataset?";
    }
  } else {
    std::vector<std::size_t> all = data.all_indices(&rng_);
    const auto validation_count = static_cast<std::size_t>(
        static_cast<double>(all.size()) * config_.validation_fraction);
    split_validation_.assign(all.begin(), all.begin() + validation_count);
    split_training_.assign(all.begin() + validation_count, all.end());
  }
  const std::vector<std::size_t>& validation = split_validation_;
  std::vector<std::size_t> training = split_training_;
  HOTSPOT_CHECK(!training.empty()) << "validation split consumed all data";
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

  optim::PlateauDecay scheduler(optimizer_, config_.plateau_factor,
                                config_.plateau_patience);
  if (have_scheduler_state_) {
    scheduler.load_state(scheduler_state_);
  }
  std::vector<EpochStats> history =
      resumed_ ? std::move(resume_history_) : std::vector<EpochStats>{};
  resume_history_.clear();
  const std::size_t total_epochs =
      static_cast<std::size_t>(config_.epochs + config_.finetune_epochs);

  auto run_phase = [&](int phase_start, int epochs, float bias,
                       bool finetune) {
    for (int epoch = 0; epoch < epochs; ++epoch) {
      const int global_epoch = phase_start + epoch;
      if (static_cast<int>(history.size()) > global_epoch) {
        continue;  // completed before the checkpoint we resumed from
      }
      EpochStats stats;
      stats.epoch = global_epoch;
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

      if (stats.validation_loss < best_validation_loss_) {
        best_validation_loss_ = stats.validation_loss;
        if (!config_.checkpoint_path.empty()) {
          const nn::SaveResult saved = nn::save_checkpoint(
              config_.checkpoint_path + ".best", model_);
          if (!saved.ok()) {
            HOTSPOT_LOG(kWarning)
                << "best-model snapshot failed: " << saved.message;
          }
        }
      }
      if (!config_.checkpoint_path.empty() &&
          (history.size() % static_cast<std::size_t>(config_.checkpoint_every) ==
               0 ||
           history.size() == total_epochs)) {
        const nn::SaveResult saved = save_training_checkpoint(
            config_.checkpoint_path, scheduler, history);
        if (saved.ok()) {
          last_checkpoint_ = config_.checkpoint_path;
        } else {
          // Training is healthier than the disk: keep going; the previous
          // snapshot (if any) is still intact thanks to the atomic write.
          HOTSPOT_LOG(kWarning) << "checkpoint failed: " << saved.message;
        }
      }
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
