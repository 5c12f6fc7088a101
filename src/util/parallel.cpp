#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "util/check.h"
#include "util/string_util.h"

namespace hotspot::util {
namespace {

// Set while a thread executes chunks, so nested parallel_for calls run
// inline instead of deadlocking on the pool.
thread_local bool t_in_parallel_region = false;

// Upper bound on chunks per loop. A constant (not a multiple of the thread
// count) keeps the partition thread-count-independent while bounding
// per-chunk scheduling overhead on large ranges.
constexpr std::int64_t kMaxChunks = 256;

struct Job {
  const ParallelChunkFn* fn = nullptr;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t chunk = 1;
  std::int64_t chunk_count = 0;
  std::atomic<std::int64_t> next{0};
  std::atomic<std::int64_t> completed{0};
  std::mutex error_mutex;
  std::exception_ptr error;
};

int default_thread_count() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware >= 1 ? static_cast<int>(hardware) : 1;
}

int env_thread_count() { return resolve_threads_from_env(); }

class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  int num_threads() {
    std::lock_guard<std::mutex> lock(mutex_);
    return num_threads_;
  }

  void set_num_threads(int threads) {
    HOTSPOT_CHECK(!t_in_parallel_region)
        << "set_parallel_threads inside a parallel region";
    threads = std::max(threads, 1);
    stop_workers();
    std::lock_guard<std::mutex> lock(mutex_);
    num_threads_ = threads;
    // Workers are respawned lazily by the next run().
  }

  void run(const std::shared_ptr<Job>& job) {
    ensure_workers();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = job;
      ++generation_;
    }
    work_cv_.notify_all();
    execute_chunks(*job);
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return job->completed.load(std::memory_order_acquire) ==
             job->chunk_count;
    });
    job_.reset();
  }

  ~ThreadPool() { stop_workers(); }

 private:
  ThreadPool() : num_threads_(env_thread_count()) {}

  static void execute_chunks(Job& job) {
    t_in_parallel_region = true;
    for (;;) {
      const std::int64_t index =
          job.next.fetch_add(1, std::memory_order_relaxed);
      if (index >= job.chunk_count) {
        break;
      }
      const std::int64_t lo = job.begin + index * job.chunk;
      const std::int64_t hi = std::min(job.end, lo + job.chunk);
      try {
        (*job.fn)(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.error_mutex);
        if (!job.error) {
          job.error = std::current_exception();
        }
      }
      job.completed.fetch_add(1, std::memory_order_acq_rel);
    }
    t_in_parallel_region = false;
  }

  void worker_loop() {
    std::uint64_t seen_generation = 0;
    for (;;) {
      std::shared_ptr<Job> job;  // keeps the job alive past run()'s return
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_cv_.wait(lock, [&] {
          return stopping_ || generation_ != seen_generation;
        });
        if (stopping_) {
          return;
        }
        seen_generation = generation_;
        job = job_;
      }
      if (job != nullptr) {
        execute_chunks(*job);
        // Take the lock so a completion cannot slip between the main
        // thread's predicate check and its wait.
        { std::lock_guard<std::mutex> lock(mutex_); }
        done_cv_.notify_all();
      }
    }
  }

  void ensure_workers() {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto wanted = static_cast<std::size_t>(num_threads_ - 1);
    while (workers_.size() < wanted) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void stop_workers() {
    std::vector<std::thread> to_join;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
      to_join.swap(workers_);
    }
    work_cv_.notify_all();
    for (std::thread& worker : to_join) {
      worker.join();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = false;
  }

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  int num_threads_;
  std::uint64_t generation_ = 0;
  std::shared_ptr<Job> job_;
  bool stopping_ = false;
};

}  // namespace

bool parse_thread_count_strict(const char* text, int* out) {
  const std::optional<long long> parsed =
      text != nullptr ? parse_integer(text, 1, kMaxThreadCount) : std::nullopt;
  if (!parsed) {
    return false;
  }
  if (out != nullptr) {
    *out = static_cast<int>(*parsed);
  }
  return true;
}

int resolve_threads_from_env() {
  const char* text = std::getenv("HOTSPOT_NUM_THREADS");
  if (text == nullptr || *text == '\0') {
    return default_thread_count();
  }
  int threads = 0;
  if (!parse_thread_count_strict(text, &threads)) {
    // Exit 2 like the other strict env validations (HOTSPOT_SIMD,
    // HOTSPOT_BENCH_SCALE): an overflowed value silently truncated, or a
    // typo'd one silently defaulted, would run the whole workload at an
    // unintended width.
    std::fprintf(stderr,
                 "invalid HOTSPOT_NUM_THREADS='%s': expected an integer in "
                 "[1, %d]\n",
                 text, kMaxThreadCount);
    std::exit(2);
  }
  return threads;
}

int parallel_threads() { return ThreadPool::instance().num_threads(); }

void set_parallel_threads(int threads) {
  ThreadPool::instance().set_num_threads(threads);
}

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const ParallelChunkFn& fn) {
  const std::int64_t range = end - begin;
  if (range <= 0) {
    return;
  }
  grain = std::max<std::int64_t>(grain, 1);
  // Partition first: chunk boundaries depend only on (range, grain), so the
  // work decomposition — and therefore any per-chunk arithmetic — is
  // identical at every thread count.
  const std::int64_t chunk =
      std::max(grain, (range + kMaxChunks - 1) / kMaxChunks);
  const std::int64_t chunk_count = (range + chunk - 1) / chunk;
  ThreadPool& pool = ThreadPool::instance();
  if (t_in_parallel_region || chunk_count <= 1 || pool.num_threads() <= 1) {
    fn(begin, end);
    return;
  }
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->begin = begin;
  job->end = end;
  job->chunk = chunk;
  job->chunk_count = chunk_count;
  pool.run(job);
  if (job->error) {
    std::rethrow_exception(job->error);
  }
}

}  // namespace hotspot::util
