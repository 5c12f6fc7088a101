// Training loop for hotspot classifiers (paper Sec. 3.3-3.4).
//
// Mini-batch gradient descent with NAdam, random horizontal/vertical flip
// augmentation, exponential learning-rate decay on validation-loss plateaus,
// and the biased-learning finetune phase: after the main phase the model is
// finetuned with non-hotspot targets smoothed to [1-eps, eps] (eps = 0.2),
// trading false alarms for detection accuracy.
//
// The trainer is model-agnostic (anything producing [n,2] logits) and the
// batch builder is pluggable so the DAC'17 baseline can feed DCT feature
// tensors through the same loop.
//
// Fault tolerance: with `checkpoint_path` set the trainer writes an atomic
// snapshot every `checkpoint_every` epochs carrying the model tensors, NAdam
// moment buffers, LR-scheduler progress, the RNG stream, epoch counters, and
// the per-epoch history. resume_from() restores all of it, and because the
// train/validation split travels with the checkpoint (instead of being
// re-drawn against the restored stream), a resumed train() replays the
// remaining epochs bit-identically to an uninterrupted run. A per-batch
// numeric-health guard watches the loss and
// gradient norm for NaN/Inf and applies a configurable containment policy.
#pragma once

#include <functional>
#include <limits>
#include <string>

#include "dataset/dataset.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "nn/serialize.h"
#include "optim/lr_scheduler.h"
#include "optim/nadam.h"

namespace hotspot::core {

struct TrainerConfig {
  int batch_size = 32;
  int epochs = 8;
  int finetune_epochs = 2;
  float learning_rate = 0.02f;
  float bias_epsilon = 0.2f;       // Sec. 3.4.3
  float plateau_factor = 0.5f;     // exponential decay on plateau
  int plateau_patience = 5;
  double validation_fraction = 0.1;
  bool augment = true;             // random H/V flips (Sec. 3.4.1)
  // Each hotspot index appears this many times per epoch. 1 reproduces the
  // paper's raw-imbalance training; CI-scale configs raise it because a few
  // hundred samples x few epochs cannot amortize a 14:1 imbalance the way
  // the full benchmark x many epochs does.
  int hotspot_oversample = 1;
  double grad_clip = 5.0;          // 0 disables clipping
  std::uint64_t seed = 1;
  bool verbose = false;

  // Empty disables periodic checkpoints. When set, a full training snapshot
  // is written atomically to this path every `checkpoint_every` epochs (and
  // after the final epoch), and the best-validation model so far is kept at
  // "<checkpoint_path>.best".
  std::string checkpoint_path;
  int checkpoint_every = 1;
};

struct EpochStats {
  int epoch = 0;
  bool finetune = false;
  double train_loss = 0.0;
  double validation_loss = 0.0;
  float learning_rate = 0.0f;
  // Numeric-health guard activity: batches whose loss/gradients came back
  // NaN/Inf, and batches whose update was dropped in response.
  int numeric_events = 0;
  int skipped_batches = 0;
  // Optimizer steps actually applied this epoch (skipped batches excluded).
  int steps = 0;
  // Wall time of the epoch (training pass + validation). Measured, not
  // checkpointed: epochs replayed from a resume report 0.
  double epoch_seconds = 0.0;
};

// Assembles the model-input tensor for the given sample indices.
using BatchBuilder = std::function<tensor::Tensor(
    const dataset::HotspotDataset&, const std::vector<std::size_t>&,
    util::Rng* augment_rng)>;

// Default builder: raw {0,1} images [n,1,ls,ls] with flip augmentation.
BatchBuilder image_batch_builder();

class Trainer {
 public:
  Trainer(nn::Module& model, const TrainerConfig& config,
          BatchBuilder batch_builder = image_batch_builder());

  // Runs the main phase then the biased finetune phase; returns per-epoch
  // statistics (main epochs first). After resume_from(), already-completed
  // epochs are skipped and their stats are returned verbatim, so the full
  // history is identical to an uninterrupted run.
  std::vector<EpochStats> train(const dataset::HotspotDataset& data);

  // Restores a snapshot written by a previous run with the same config,
  // model architecture, and dataset. Call before train(). Returns a typed
  // error (missing / truncated / corrupt / shape mismatch) on failure; the
  // trainer is left untouched unless the result is ok().
  nn::LoadResult resume_from(const std::string& path);

  // Path of the newest successfully written snapshot ("" until one exists;
  // resume_from() seeds it with the resumed path).
  const std::string& last_checkpoint_path() const { return last_checkpoint_; }

  // Lowest validation loss observed so far (+inf before the first epoch).
  double best_validation_loss() const { return best_validation_loss_; }

 private:
  // One pass over `indices` with the given label bias; fills stats.
  void run_epoch(const dataset::HotspotDataset& data,
                 const std::vector<std::size_t>& indices, float bias_epsilon,
                 util::Rng& rng, EpochStats& stats);

  // Mean loss over `indices` without updates (validation).
  double evaluate_loss(const dataset::HotspotDataset& data,
                       const std::vector<std::size_t>& indices);

  // Atomic full-state snapshot (model + optimizer + scheduler + RNG +
  // history).
  nn::SaveResult save_training_checkpoint(
      const std::string& path, const optim::PlateauDecay& scheduler,
      const std::vector<EpochStats>& history);

  nn::Module& model_;
  TrainerConfig config_;
  BatchBuilder batch_builder_;
  optim::NAdam optimizer_;
  nn::SoftmaxCrossEntropy loss_;
  util::Rng rng_;

  std::string last_checkpoint_;
  double best_validation_loss_ = std::numeric_limits<double>::infinity();
  bool resumed_ = false;
  std::vector<EpochStats> resume_history_;
  optim::PlateauDecay::State scheduler_state_{};
  bool have_scheduler_state_ = false;
  // Train/validation split of the in-progress run. The fresh path draws it
  // from the training stream; resume_from() restores it from the checkpoint
  // (the training list is the pre-oversample base).
  std::vector<std::size_t> split_validation_;
  std::vector<std::size_t> split_training_;
};

// The batch size both Table-3 detectors (BnnHotspotDetector and
// baselines::DctCnnDetector) pass to predict_labels, so the runtime
// comparison runs them under one batching policy. Larger than the training
// batch: it amortizes sign packing and fills more 64-position lane words
// of the direct binary conv.
inline constexpr int kInferenceBatchSize = 64;

// Batched inference over a whole dataset; returns predicted labels in
// dataset order. Puts the model into eval mode for the duration.
std::vector<int> predict_labels(
    nn::Module& model, const dataset::HotspotDataset& data, int batch_size,
    const BatchBuilder& batch_builder = image_batch_builder());

}  // namespace hotspot::core
