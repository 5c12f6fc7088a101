#include "serve/model_registry.h"

#include <utility>

#include "obs/metrics.h"
#include "util/atomic_file.h"
#include "util/fault_injection.h"
#include "util/json.h"
#include "util/rng.h"

namespace hotspot::serve {

ServableModel::ServableModel(std::string path, std::int64_t image_size,
                             std::uint64_t version)
    : path_(std::move(path)), image_size_(image_size), version_(version) {
  // The constructed weights are placeholders — load_checkpoint overwrites
  // every tensor (strict name/shape match) or fails — so the init seed is
  // irrelevant to served results.
  core::BrnnConfig config = core::BrnnConfig::compact(image_size_);
  util::Rng rng(0x53455256);  // "SERV"
  model_ = std::make_unique<core::BrnnModel>(config, rng);
  load_result_ = nn::load_checkpoint(path_, *model_);
  if (load_result_.ok()) {
    model_->set_training(false);
    // Compile the inference plan here, on the loading thread, so the first
    // request after a load or hot swap does not pay for it on the batch
    // worker.
    model_->plan();
  } else {
    model_.reset();
  }
}

std::vector<int> ServableModel::predict(const tensor::Tensor& images) {
  // Chaos probe: an armed stall wedges the batch worker here, which is how
  // shed tests fill the admission queue deterministically.
  util::fault_maybe_stall(util::FaultPoint::kScanPredictStall);
  return model_->predict(images);
}

ModelRegistry::ModelRegistry(std::string state_path)
    : state_path_(std::move(state_path)) {}

nn::LoadResult ModelRegistry::load(const std::string& path,
                                   std::int64_t image_size) {
  std::uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    version = next_version_;
  }
  // Build and validate entirely off to the side: in-flight batches keep
  // running on the old model, and a failed load publishes nothing.
  auto candidate = std::make_shared<ServableModel>(path, image_size, version);
  if (!candidate->load_result().ok()) {
    static obs::Counter& failed_counter =
        obs::MetricsRegistry::global().counter("serve.swap_failures");
    failed_counter.increment();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      last_swap_ok_ = false;
      last_swap_error_ = candidate->load_result().message;
      ++swap_failures_;
    }
    return candidate->load_result();
  }
  std::string state_error;
  if (!write_state(*candidate, &state_error)) {
    // A model we cannot record would silently vanish on restart; refuse the
    // swap so the operator sees the problem while the old model serves on.
    std::lock_guard<std::mutex> lock(mutex_);
    last_swap_ok_ = false;
    last_swap_error_ = state_error;
    ++swap_failures_;
    return util::IoResult::failure(util::IoStatus::kWriteFailed, state_error);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    active_ = std::move(candidate);
    next_version_ = version + 1;
    last_swap_ok_ = true;
    last_swap_error_.clear();
  }
  static obs::Counter& swap_counter =
      obs::MetricsRegistry::global().counter("serve.swaps");
  swap_counter.increment();
  static obs::Gauge& version_gauge =
      obs::MetricsRegistry::global().gauge("serve.model_version");
  version_gauge.set(static_cast<double>(version));
  return util::IoResult::success();
}

nn::LoadResult ModelRegistry::restore() {
  if (state_path_.empty()) {
    return util::IoResult::failure(util::IoStatus::kMissing,
                                   "registry persistence disabled");
  }
  util::JsonValue state;
  std::string error;
  if (!util::parse_json_file(state_path_, state, error)) {
    return util::IoResult::failure(util::IoStatus::kMissing,
                                   state_path_ + ": " + error);
  }
  const util::JsonValue* schema = state.find("schema_version");
  const util::JsonValue* path = state.find("model_path");
  const util::JsonValue* image_size = state.find("image_size");
  const util::JsonValue* version = state.find("version");
  if (schema == nullptr || !schema->is_number() ||
      schema->as_number() != 1.0 || path == nullptr || !path->is_string() ||
      image_size == nullptr || !image_size->is_number() ||
      version == nullptr || !version->is_number()) {
    return util::IoResult::failure(util::IoStatus::kBadFormat,
                                   state_path_ + ": malformed registry state");
  }
  {
    // Resume the version sequence so post-restart swaps keep ascending.
    std::lock_guard<std::mutex> lock(mutex_);
    const auto recorded = static_cast<std::uint64_t>(version->as_number());
    if (recorded >= next_version_) {
      next_version_ = recorded;
    }
  }
  return load(path->as_string(),
              static_cast<std::int64_t>(image_size->as_number()));
}

std::shared_ptr<ServableModel> ModelRegistry::active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_;
}

std::uint64_t ModelRegistry::version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_ != nullptr ? active_->version() : 0;
}

ModelRegistry::SwapStatus ModelRegistry::swap_status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SwapStatus status;
  status.model_registered = active_ != nullptr;
  if (active_ != nullptr) {
    status.active_version = active_->version();
    status.active_path = active_->path();
    status.image_size = active_->image_size();
  }
  status.last_ok = last_swap_ok_;
  status.last_error = last_swap_error_;
  status.failures = swap_failures_;
  return status;
}

bool ModelRegistry::write_state(const ServableModel& model,
                                std::string* error) const {
  if (state_path_.empty()) {
    return true;  // persistence disabled
  }
  // Same atomic publication discipline as checkpoints (§9): a crash during
  // the write leaves the previous state file intact, so restore() always
  // sees a complete record.
  util::AtomicFileWriter writer(
      state_path_, {util::FaultPoint::kCheckpointWrite,
                    util::FaultPoint::kCheckpointFlush,
                    util::FaultPoint::kCheckpointRename});
  const std::string text =
      "{\"schema_version\": 1, \"model_path\": \"" +
      util::json_escape(model.path()) +
      "\", \"image_size\": " + std::to_string(model.image_size()) +
      ", \"version\": " + std::to_string(model.version()) + "}\n";
  if (!writer.ok() || !writer.write(text.data(), text.size()) ||
      !writer.finalize()) {
    *error = writer.error();
    return false;
  }
  return true;
}

}  // namespace hotspot::serve
