// Persistent hotspot-detection server (DESIGN.md §15).
//
// Socket front end on 127.0.0.1 (serve/socket.h): the listener's accept
// thread hands each connection to its own reader thread, up to
// max_connections at once, which decodes CRC-framed requests (protocol.h),
// unpacks the bit-packed rasters, and submits them to the shared
// MicroBatcher. The batcher's single worker fuses requests across clients
// into one classifier call; per-request futures carry the sliced labels
// back to the connection threads.
//
// Failure policy, per frame:
//   * unparseable / corrupt frame  -> Reject(kBadFrame), connection closed
//     (framing is lost, so the stream cannot be trusted further);
//   * structurally invalid request -> typed Reject, connection stays open;
//   * admission queue full         -> Reject(kQueueFull) — load shed;
//   * connection cap reached       -> Reject(kQueueFull), connection closed;
//   * no model registered          -> Reject(kModelUnavailable).
//
// Hot-swap: a SwapModel frame drives ModelRegistry::load. The batcher's
// BatchFn resolves registry->active() once per fused batch, so every batch
// (and therefore every request, which is never split) runs on exactly one
// model version; in-flight batches finish on the version they resolved.
//
// Metrics (obs registry): serve.requests / serve.clips / serve.shed /
// serve.rejects / serve.bad_frames / serve.connections / serve.swaps, the
// serve.request_seconds latency histogram (p50/p95/p99 in exports), and
// per-tenant counters serve.tenant.<name>.requests / .clips.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/request_trace.h"
#include "obs/slo.h"
#include "serve/batcher.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "serve/socket.h"

namespace hotspot::serve {

struct ServerConfig {
  // 0 binds an ephemeral port; bound_port() reports the real one.
  int port = 0;
  // Accept backlog and the cap on simultaneously served connections; a
  // connection beyond the cap gets Reject(kQueueFull) and is closed.
  int max_connections = 32;
  // Per-request clip cap, enforced before unpacking. Must not exceed
  // batcher.max_batch_clips (a request is never split).
  std::size_t max_clips_per_request = 64;
  BatcherConfig batcher;
  // SLO objectives for the rolling error-budget gauges (obs/slo.h). Shed
  // and typed-reject outcomes count against the budget.
  obs::SloConfig slo;
  // Completed-request summaries retained for /tracez and the fatal-signal
  // flight dump.
  std::size_t flight_recorder_capacity = 1024;
};

class Server {
 public:
  // The registry is shared: the caller may load/swap models concurrently
  // with serving (that is the point). It must outlive the server.
  Server(const ServerConfig& config, ModelRegistry* registry);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds 127.0.0.1:<port> and starts the accept loop. False with `error`
  // set when the socket cannot be bound.
  bool start(std::string* error);

  // Port actually bound (resolves port 0); 0 before start().
  int bound_port() const { return listener_.bound_port(); }

  // Blocks until stop() is called (by a Shutdown frame or another thread).
  void wait();

  // Stops accepting, unblocks every connection, drains the batcher, joins
  // all threads. Idempotent; called by the destructor.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // Observability surface (valid for the server's whole lifetime, admin
  // endpoint and tests read them concurrently with serving).
  obs::FlightRecorder& flight_recorder() { return flight_recorder_; }
  const obs::FlightRecorder& flight_recorder() const {
    return flight_recorder_;
  }
  obs::SloMonitor& slo_monitor() { return slo_monitor_; }
  ModelRegistry& registry() { return *registry_; }
  // Clips waiting in the admission queue right now (0 before start()).
  std::size_t queue_depth_clips() const {
    return batcher_ != nullptr ? batcher_->queued_clips() : 0;
  }
  std::size_t queue_capacity_clips() const {
    return config_.batcher.max_queue_clips;
  }

 private:
  // Sets stopping_ under stop_mutex_ and wakes wait()ers.
  void signal_stopping();
  // Listener handler: reaps finished readers, then either spawns a reader
  // thread for `fd` or, at the connection cap, rejects and closes it.
  void accept_connection(int fd);
  void serve_connection(int fd);
  // One request, already decoded. `trace` was allocated at frame decode
  // (decode_seconds filled, identity fields set). Returns false when the
  // connection should close (shutdown or send failure).
  bool handle_predict(int fd, const PredictRequest& request,
                      const std::shared_ptr<obs::RequestTrace>& trace);
  // Stamps outcome/total, records into the flight recorder and SLO window,
  // and observes the decode/encode phase histograms.
  void finish_request(const std::shared_ptr<obs::RequestTrace>& trace,
                      obs::RequestOutcome outcome, double total_seconds);
  bool send_frame(int fd, MessageType type,
                  const std::vector<std::uint8_t>& payload,
                  std::uint64_t trace_id = 0);
  bool send_reject(int fd, std::uint32_t request_id, RejectReason reason,
                   const std::string& detail, std::uint64_t trace_id = 0);

  ServerConfig config_;
  ModelRegistry* registry_;
  obs::FlightRecorder flight_recorder_;
  obs::SloMonitor slo_monitor_;
  std::atomic<std::uint64_t> next_trace_id_{1};
  std::unique_ptr<MicroBatcher> batcher_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  // One reader thread per served connection; `done` is set as the reader
  // returns, so its join is immediate. Touched only by the accept thread,
  // and by stop() once that thread is joined.
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<Connection> connections_;
  Listener listener_;
};

}  // namespace hotspot::serve
