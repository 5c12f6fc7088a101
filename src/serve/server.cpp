#include "serve/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <future>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace hotspot::serve {
namespace {

// Registry-resolved counters; resolved once, lock-free afterwards.
struct ServeCounters {
  obs::Counter& requests;
  obs::Counter& clips;
  obs::Counter& rejects;
  obs::Counter& bad_frames;
  obs::Counter& connections;
  obs::Histogram& request_seconds;

  static ServeCounters& get() {
    static ServeCounters counters = {
        obs::MetricsRegistry::global().counter("serve.requests"),
        obs::MetricsRegistry::global().counter("serve.clips"),
        obs::MetricsRegistry::global().counter("serve.rejects"),
        obs::MetricsRegistry::global().counter("serve.bad_frames"),
        obs::MetricsRegistry::global().counter("serve.connections"),
        obs::MetricsRegistry::global().histogram(
            "serve.request_seconds", obs::default_latency_buckets()),
    };
    return counters;
  }
};

}  // namespace

Server::Server(const ServerConfig& config, ModelRegistry* registry)
    : config_(config),
      registry_(registry),
      flight_recorder_(config.flight_recorder_capacity),
      slo_monitor_(config.slo) {
  HOTSPOT_CHECK(registry_ != nullptr);
  HOTSPOT_CHECK_LE(config_.max_clips_per_request,
                   config_.batcher.max_batch_clips)
      << "a request must fit in one batch";
}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  HOTSPOT_CHECK(!running()) << "start() called twice";
  // The batcher resolves the active model once per fused batch: every
  // request rides exactly one model version, and a hot-swap mid-load only
  // affects batches formed after the swap. It exists before the first
  // connection is accepted.
  batcher_ = std::make_unique<MicroBatcher>(
      config_.batcher, [this](const tensor::Tensor& images) {
        std::shared_ptr<ServableModel> model = registry_->active();
        HOTSPOT_CHECK(model != nullptr)
            << "batch scheduled with no active model";
        return BatchResult(model->predict(images), model->version());
      });
  stopping_.store(false, std::memory_order_release);
  if (!listener_.start(config_.port, config_.max_connections,
                       [this](int fd) { accept_connection(fd); }, error)) {
    batcher_->stop();
    batcher_.reset();
    return false;
  }
  running_.store(true, std::memory_order_release);
  return true;
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  stop_cv_.wait(lock, [&] { return stopping_.load(); });
}

void Server::stop() {
  if (!running_.exchange(false)) {
    // Still wake any wait()ers on repeated stop.
    signal_stopping();
    return;
  }
  signal_stopping();
  // Stop accepting first: once the accept thread is joined the connection
  // list is final. shutdown() then unblocks every reader without racing
  // the fd close.
  listener_.stop();
  for (Connection& connection : connections_) {
    ::shutdown(connection.fd, SHUT_RDWR);
  }
  for (Connection& connection : connections_) {
    connection.thread.join();
    ::close(connection.fd);
  }
  connections_.clear();
  batcher_->stop();
}

void Server::signal_stopping() {
  {
    // Taken (and immediately dropped) so the store cannot slip between a
    // wait()er's predicate check and its sleep.
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  stop_cv_.notify_all();
}

void Server::accept_connection(int fd) {
  if (stopping_.load(std::memory_order_acquire)) {
    ::close(fd);
    return;
  }
  ServeCounters::get().connections.increment();
  // Reap finished readers so a long-lived server does not accumulate
  // joinable threads or count them against the cap.
  connections_.remove_if([](Connection& connection) {
    if (!connection.done.load(std::memory_order_acquire)) {
      return false;
    }
    connection.thread.join();
    ::close(connection.fd);
    return true;
  });
  if (static_cast<int>(connections_.size()) >= config_.max_connections) {
    ServeCounters::get().rejects.increment();
    send_reject(fd, 0, RejectReason::kQueueFull, "connection limit");
    ::close(fd);
    return;
  }
  Connection& connection = connections_.emplace_back();
  connection.fd = fd;
  connection.thread = std::thread([this, &connection] {
    serve_connection(connection.fd);
    connection.done.store(true, std::memory_order_release);
  });
}

void Server::serve_connection(int fd) {
  const ReadFn reader = socket_reader(fd);
  for (;;) {
    Frame frame;
    const FrameStatus status = read_frame(reader, &frame);
    if (status == FrameStatus::kEof) {
      return;  // clean disconnect
    }
    if (status != FrameStatus::kOk) {
      // Framing is lost: a typed reject, then drop the connection. Reading
      // on would misparse garbage as requests.
      ServeCounters::get().bad_frames.increment();
      send_reject(fd, 0, RejectReason::kBadFrame, frame_status_name(status));
      ::shutdown(fd, SHUT_RDWR);
      return;
    }
    // Request id, allocated at frame decode: echoed on every response
    // header and carried through the batcher into the flight recorder, so
    // one id correlates client logs, /tracez, and metrics. A client that
    // supplied its own nonzero trace_id keeps it.
    const std::uint64_t trace_id =
        frame.trace_id != 0
            ? frame.trace_id
            : next_trace_id_.fetch_add(1, std::memory_order_relaxed);
    if (stopping_.load(std::memory_order_acquire)) {
      send_reject(fd, 0, RejectReason::kShuttingDown, "server stopping", trace_id);
      return;
    }
    switch (frame.type) {
      case MessageType::kPing: {
        std::uint32_t token = 0;
        if (!decode_token(frame.payload, &token)) {
          if (!send_reject(fd, 0, RejectReason::kBadRequest, "bad ping", trace_id)) {
            return;
          }
          break;
        }
        if (!send_frame(fd, MessageType::kPong, encode_token(token), trace_id)) {
          return;
        }
        break;
      }
      case MessageType::kPredictRequest: {
        util::Stopwatch frame_timer;  // total latency starts at decode
        auto trace = std::make_shared<obs::RequestTrace>();
        trace->request_id = trace_id;
        trace->start_ns = flight_recorder_.relative_now_ns();
        PredictRequest request;
        if (!decode_predict_request(frame.payload, &request)) {
          ServeCounters::get().rejects.increment();
          trace->decode_seconds = frame_timer.seconds();
          finish_request(trace, obs::RequestOutcome::kRejected,
                         frame_timer.seconds());
          if (!send_reject(fd, 0, RejectReason::kBadRequest,
                           "malformed predict payload",
                           trace_id)) {
            return;
          }
          break;
        }
        trace->client_request_id = request.request_id;
        trace->tenant = request.tenant;
        trace->clips = request.count;
        if (!handle_predict(fd, request, trace)) {
          return;
        }
        break;
      }
      case MessageType::kSwapModel: {
        SwapModel swap;
        if (!decode_swap_model(frame.payload, &swap)) {
          if (!send_reject(fd, 0, RejectReason::kBadRequest, "bad swap", trace_id)) {
            return;
          }
          break;
        }
        const nn::LoadResult result =
            registry_->load(swap.path, swap.image_size);
        if (!result.ok()) {
          if (!send_reject(fd, swap.request_id, RejectReason::kSwapFailed,
                           result.message, trace_id)) {
            return;
          }
          break;
        }
        SwapOk ok;
        ok.request_id = swap.request_id;
        ok.version = registry_->version();
        if (!send_frame(fd, MessageType::kSwapOk, encode_swap_ok(ok), trace_id)) {
          return;
        }
        break;
      }
      case MessageType::kStatsRequest: {
        // Refresh the derived gauges so a stats snapshot carries the same
        // live SLO/timeline state a /metrics scrape would.
        slo_monitor_.publish();
        obs::publish_timeline_metrics();
        const std::string json = obs::to_json(
            obs::MetricsRegistry::global().snapshot(),
            obs::collect_span_report());
        std::vector<std::uint8_t> payload(json.begin(), json.end());
        if (!send_frame(fd, MessageType::kStatsResponse, payload, trace_id)) {
          return;
        }
        break;
      }
      case MessageType::kShutdown: {
        send_frame(fd, MessageType::kShutdownOk, {}, trace_id);
        // Flip stopping_ and wake wait(); the full stop() teardown (which
        // joins this very thread) must run outside it.
        signal_stopping();
        return;
      }
      default: {
        if (!send_reject(fd, 0, RejectReason::kBadRequest,
                         "unexpected message type", trace_id)) {
          return;
        }
        break;
      }
    }
  }
}

bool Server::handle_predict(int fd, const PredictRequest& request,
                            const std::shared_ptr<obs::RequestTrace>& trace) {
  ServeCounters& counters = ServeCounters::get();
  util::Stopwatch timer;
  const std::uint64_t trace_id = trace->request_id;
  // Every early exit closes the trace with the outcome it died on, so shed
  // and rejected traffic shows in /tracez and burns SLO budget too.
  const auto reject = [&](RejectReason reason, const std::string& detail,
                          obs::RequestOutcome outcome) {
    counters.rejects.increment();
    trace->total_seconds = timer.seconds();
    finish_request(trace, outcome, trace->total_seconds);
    return send_reject(fd, request.request_id, reason, detail,
                       trace_id);
  };
  if (request.count == 0 ||
      static_cast<std::size_t>(request.count) > config_.max_clips_per_request) {
    return reject(RejectReason::kTooLarge,
                  "clip count outside [1, " +
                      std::to_string(config_.max_clips_per_request) + "]",
                  obs::RequestOutcome::kRejected);
  }
  std::shared_ptr<ServableModel> model = registry_->active();
  if (model == nullptr) {
    return reject(RejectReason::kModelUnavailable, "no model registered",
                  obs::RequestOutcome::kRejected);
  }
  if (request.grid != model->image_size()) {
    return reject(RejectReason::kBadRequest,
                  "grid " + std::to_string(request.grid) +
                      " does not match model image size " +
                      std::to_string(model->image_size()),
                  obs::RequestOutcome::kRejected);
  }
  const std::int64_t count = request.count;
  const std::int64_t grid = request.grid;
  std::vector<float> pixels =
      unpack_rasters(request.packed_clips, static_cast<std::size_t>(count),
                     request.grid);
  tensor::Tensor images(tensor::Shape{count, 1, grid, grid},
                        std::move(pixels));
  // Decode ends once the wire payload is a batch tensor.
  trace->decode_seconds = timer.seconds();
  std::future<std::vector<int>> pending;
  const AdmitStatus admitted =
      batcher_->submit(std::move(images), &pending, trace);
  if (admitted == AdmitStatus::kShed) {
    // serve.shed is incremented by the batcher itself.
    return reject(RejectReason::kQueueFull, "admission queue full",
                  obs::RequestOutcome::kShed);
  }
  if (admitted != AdmitStatus::kOk) {
    return reject(RejectReason::kShuttingDown, "batcher stopped",
                  obs::RequestOutcome::kRejected);
  }
  std::vector<int> labels;
  try {
    labels = pending.get();
  } catch (const std::exception& e) {
    return reject(RejectReason::kBadRequest,
                  std::string("classification failed: ") + e.what(),
                  obs::RequestOutcome::kError);
  }
  util::Stopwatch encode_timer;
  PredictResponse response;
  response.request_id = request.request_id;
  response.labels.reserve(labels.size());
  std::uint32_t hotspots = 0;
  for (const int label : labels) {
    const std::uint8_t bit = label != 0 ? 1 : 0;
    hotspots += bit;
    response.labels.push_back(bit);
  }
  const std::vector<std::uint8_t> payload = encode_predict_response(response);
  trace->encode_seconds = encode_timer.seconds();
  trace->hotspots = hotspots;
  trace->total_seconds = timer.seconds();
  counters.requests.increment();
  counters.clips.increment(static_cast<std::uint64_t>(count));
  counters.request_seconds.observe(trace->total_seconds);
  // Per-tenant accounting. Tenant names are validated to [A-Za-z0-9_.-] so
  // they are safe inside metric names.
  obs::MetricsRegistry::global()
      .counter("serve.tenant." + request.tenant + ".requests")
      .increment();
  obs::MetricsRegistry::global()
      .counter("serve.tenant." + request.tenant + ".clips")
      .increment(static_cast<std::uint64_t>(count));
  // Record before the response leaves: once the client sees its answer the
  // flight recorder and SLO window are guaranteed to include this request.
  finish_request(trace, obs::RequestOutcome::kOk, trace->total_seconds);
  return send_frame(fd, MessageType::kPredictResponse, payload,
                    trace_id);
}

void Server::finish_request(const std::shared_ptr<obs::RequestTrace>& trace,
                            obs::RequestOutcome outcome,
                            double total_seconds) {
  trace->outcome = outcome;
  trace->total_seconds = total_seconds;
  static obs::Histogram& decode_seconds =
      obs::MetricsRegistry::global().histogram("serve.request.decode_seconds",
                                               obs::default_latency_buckets());
  static obs::Histogram& encode_seconds =
      obs::MetricsRegistry::global().histogram("serve.request.encode_seconds",
                                               obs::default_latency_buckets());
  decode_seconds.observe(trace->decode_seconds);
  if (outcome == obs::RequestOutcome::kOk) {
    encode_seconds.observe(trace->encode_seconds);
  }
  flight_recorder_.record(*trace);
  slo_monitor_.record(total_seconds, outcome == obs::RequestOutcome::kOk);
}

bool Server::send_frame(int fd, MessageType type,
                        const std::vector<std::uint8_t>& payload,
                        std::uint64_t trace_id) {
  const std::vector<std::uint8_t> frame =
      encode_frame(type, payload, 0, trace_id);
  return send_all(fd, frame.data(), frame.size());
}

bool Server::send_reject(int fd, std::uint32_t request_id,
                         RejectReason reason, const std::string& detail,
                         std::uint64_t trace_id) {
  Reject reject;
  reject.request_id = request_id;
  reject.reason = reason;
  reject.detail = detail.substr(0, kMaxDetailBytes);
  return send_frame(fd, MessageType::kReject, encode_reject(reject), trace_id);
}

}  // namespace hotspot::serve
