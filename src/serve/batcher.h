// Cross-client micro-batching admission scheduler (DESIGN.md §15).
//
// The scan pipeline's double-buffered producer/consumer (§11) generalized
// to many producers: connection threads submit independent requests, a
// single worker thread drains the shared util::BoundedQueue and fuses
// adjacent requests into one classifier batch. The queue's capacity is
// measured in clips (weight = clips per request), so admission control
// bounds the real quantity — queued work — not the request count.
//
// Batch formation policy: the worker blocks for the first request, then
// keeps accepting requests until either the batch would exceed
// max_batch_clips or the formation deadline (batch_deadline measured from
// the first request's arrival at the worker) expires. A request is never
// split across batches, so every request's clips run under exactly one
// model version.
//
// Backpressure is load-shedding, not blocking: submit() uses try_push, and
// a full queue returns kShed immediately (the server turns that into a
// typed Reject(kQueueFull)). A server that cannot keep up tells clients so
// in bounded time instead of stacking latency.
//
// Bit-identity: the classifier's per-sample outputs are independent of
// batch composition (see BrnnModel::predict), so fusing requests from
// different clients — in whatever order they arrived — yields exactly the
// labels each request would get alone. The concurrency never touches the
// math.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "obs/request_trace.h"
#include "tensor/tensor.h"
#include "util/bounded_queue.h"

namespace hotspot::serve {

struct BatcherConfig {
  // Largest fused batch, in clips. Requests above this are rejected with
  // kTooLarge before queuing (they could never be scheduled).
  std::size_t max_batch_clips = 64;
  // Admission queue capacity, in clips. Beyond this, submit() sheds.
  std::size_t max_queue_clips = 512;
  // How long the worker waits for more requests after the first one, before
  // shipping a partial batch. 0 ships every batch as soon as it has work.
  std::chrono::microseconds batch_deadline{2000};
};

enum class AdmitStatus {
  kOk = 0,
  kShed,      // queue full — load shed, client should back off
  kTooLarge,  // more clips than max_batch_clips, can never be batched
  kStopped,   // batcher is shutting down
};

// What one fused classifier call produced: per-clip labels plus the model
// version the batch resolved (0 when the classifier does not version, e.g.
// test lambdas). Implicitly constructible from a bare label vector so
// existing BatchFn lambdas returning std::vector<int> keep compiling.
struct BatchResult {
  std::vector<int> labels;
  std::uint64_t model_version = 0;

  BatchResult() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): intentional implicit lift.
  BatchResult(std::vector<int> batch_labels)
      : labels(std::move(batch_labels)) {}
  BatchResult(std::vector<int> batch_labels, std::uint64_t version)
      : labels(std::move(batch_labels)), model_version(version) {}
};

// Classifies a fused [n, 1, grid, grid] batch; returns one label per clip.
using BatchFn = std::function<BatchResult(const tensor::Tensor&)>;

class MicroBatcher {
 public:
  // `classify` runs on the worker thread, one fused batch at a time.
  MicroBatcher(const BatcherConfig& config, BatchFn classify);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  // Admits a [count, 1, grid, grid] request. On kOk, `result` receives a
  // future that resolves to the request's labels (or to the classifier's
  // exception). Any other status leaves `result` untouched. Never blocks.
  //
  // A non-null `trace` is filled in before the promise resolves:
  // queue_seconds (submit -> worker pop), batch_seconds (pop -> batch
  // ship), infer_seconds (the fused classifier call), and model_version —
  // and the serve.request.{queue,batch,infer}_seconds histograms observe
  // the same values. The promise/future pair orders the writes, so the
  // caller reads the trace safely after get() returns.
  AdmitStatus submit(tensor::Tensor images,
                     std::future<std::vector<int>>* result,
                     std::shared_ptr<obs::RequestTrace> trace = nullptr);

  // Stops admitting, drains queued requests through the classifier, joins
  // the worker. Idempotent.
  void stop();

  // Observability for tests: fused batches shipped and clips classified.
  std::uint64_t batches() const { return batches_.load(); }
  std::uint64_t clips() const { return clips_.load(); }

  // Live admission-queue depth in clips and its capacity (for /healthz).
  std::size_t queued_clips() const { return queue_.weight(); }
  std::size_t queue_capacity_clips() const { return config_.max_queue_clips; }

 private:
  struct Job {
    tensor::Tensor images;
    std::int64_t count = 0;
    std::promise<std::vector<int>> promise;
    std::shared_ptr<obs::RequestTrace> trace;
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point popped;
  };

  void worker_loop();
  // Fuses `jobs` into one tensor, classifies, and slices the labels back
  // per job. On classifier failure every job gets the exception.
  void run_batch(std::vector<std::unique_ptr<Job>> jobs);

  BatcherConfig config_;
  BatchFn classify_;
  util::BoundedQueue<std::unique_ptr<Job>> queue_;
  std::thread worker_;
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> clips_{0};
  std::atomic<bool> stopped_{false};
};

}  // namespace hotspot::serve
