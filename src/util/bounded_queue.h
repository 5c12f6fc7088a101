// Bounded producer/consumer handoff queue.
//
// This is the double-buffered BatchQueue the streaming scan pipeline
// (DESIGN.md §11) introduced, generalized so the serving layer's admission
// scheduler (DESIGN.md §15) can share one audited implementation:
//
//   * capacity is measured in caller-defined units (push takes a `weight`),
//     so the scan pipeline bounds *batches in flight* (weight 1, capacity 2
//     = the classic double buffer) while the serve admission queue bounds
//     *clips queued* (weight = clips per request);
//   * push() blocks until space frees (the scan producer's backpressure),
//     try_push() fails immediately instead (the serve layer's load-shed
//     path — a client is told "queue full" rather than held);
//   * pop() blocks until an item, close(), or abort(); pop_until() gives
//     the consumer a deadline, which is how micro-batches stop waiting for
//     stragglers and ship what they have.
//
// close() ends production: queued items still drain, then pops return
// nullopt. abort() ends consumption: queued items are dropped, blocked
// producers and consumers wake immediately, and every later push fails —
// the "consumer threw, stop the producer" path.
//
// Multi-producer / multi-consumer safe; every operation is serialized on
// one internal mutex (the payloads are batches, not bytes, so the lock is
// never hot).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "util/check.h"

namespace hotspot::util {

template <typename T>
class BoundedQueue {
 public:
  // `capacity` is the maximum total weight queued; a single item heavier
  // than the capacity is rejected by try_push and refused (CHECK) by push,
  // so a misconfigured producer cannot wedge the queue forever.
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    HOTSPOT_CHECK_GT(capacity, std::size_t{0}) << "queue needs capacity";
  }

  // Blocks until the item fits; false when the queue was closed or aborted
  // before the item could be enqueued (the item is dropped).
  bool push(T item, std::size_t weight = 1) {
    HOTSPOT_CHECK_LE(weight, capacity_)
        << "item weight exceeds queue capacity";
    std::unique_lock<std::mutex> lock(mutex_);
    space_cv_.wait(lock, [&] {
      return closed_ || weight_ + weight <= capacity_;
    });
    if (closed_) {
      return false;
    }
    enqueue_locked(std::move(item), weight);
    return true;
  }

  // Never blocks: false when the item does not fit right now (or the queue
  // is closed/aborted). This is the admission-control path — the caller
  // turns a false into a typed "shed" response instead of waiting.
  bool try_push(T item, std::size_t weight = 1) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || weight > capacity_ || weight_ + weight > capacity_) {
      return false;
    }
    enqueue_locked(std::move(item), weight);
    return true;
  }

  // Blocks until an item is available; nullopt once the queue is closed
  // (or aborted) and drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    item_cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    return dequeue_locked();
  }

  // Like pop(), but gives up at `deadline`: nullopt on timeout as well as
  // on closed-and-drained (disambiguate with closed() if it matters).
  template <typename Clock, typename Duration>
  std::optional<T> pop_until(
      const std::chrono::time_point<Clock, Duration>& deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    item_cv_.wait_until(lock, deadline,
                        [&] { return closed_ || !queue_.empty(); });
    return dequeue_locked();
  }

  // Producers are done; queued items still drain, then pop() returns
  // nullopt. Idempotent.
  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    item_cv_.notify_all();
    space_cv_.notify_all();
  }

  // Consumer failed: drop everything queued, wake every blocked producer
  // and consumer, and fail all later pushes. Implies close().
  void abort() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    queue_.clear();
    weight_ = 0;
    item_cv_.notify_all();
    space_cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

  // Total weight currently queued.
  std::size_t weight() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return weight_;
  }

  std::size_t capacity() const { return capacity_; }

 private:
  void enqueue_locked(T item, std::size_t weight) {
    queue_.emplace_back(std::move(item), weight);
    weight_ += weight;
    item_cv_.notify_one();
  }

  std::optional<T> dequeue_locked() {
    if (queue_.empty()) {
      return std::nullopt;
    }
    std::optional<T> item(std::move(queue_.front().first));
    weight_ -= queue_.front().second;
    queue_.pop_front();
    space_cv_.notify_one();
    return item;
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable item_cv_;
  std::condition_variable space_cv_;
  std::deque<std::pair<T, std::size_t>> queue_;
  std::size_t weight_ = 0;
  bool closed_ = false;
};

}  // namespace hotspot::util
