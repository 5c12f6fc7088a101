#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "util/check.h"
#include "util/rng.h"

namespace hotspot::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

double median(std::vector<double> values) {
  HOTSPOT_CHECK(!values.empty()) << "median of an empty sample";
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Quartiles quartiles(std::vector<double> values) {
  HOTSPOT_CHECK_GE(values.size(), std::size_t{2})
      << "quartiles need at least two values";
  std::sort(values.begin(), values.end());
  // CPython's statistics.quantiles, method="exclusive", in its own integer
  // arithmetic so both agree to the last bit.
  const auto ld = static_cast<std::int64_t>(values.size());
  const std::int64_t m = ld + 1;
  constexpr std::int64_t kN = 4;
  auto cut = [&](std::int64_t i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / kN, 1, ld - 1);
    const std::int64_t delta = i * m - j * kN;
    return (values[static_cast<std::size_t>(j - 1)] *
                static_cast<double>(kN - delta) +
            values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           static_cast<double>(kN);
  };
  return Quartiles{cut(1), cut(2), cut(3)};
}

std::optional<Tail> tail_percentile(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  for (int p = 99; p >= 0 && n > 0; --p) {
    const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
    const std::size_t index =
        static_cast<std::size_t>(std::max(rank - 1.0, 0.0));
    if (n - 1 - index >= kTailBeyond) {
      return Tail{p, samples[index], n};
    }
  }
  return std::nullopt;
}

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double clips_per_s,
                                      std::size_t count) {
  HOTSPOT_CHECK_GT(clips_per_s, 0.0);
  util::Rng rng(seed);
  const double requests_per_s = clips_per_s / kMeanRequestClips;
  std::vector<Arrival> schedule;
  schedule.reserve(count);
  double due = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    due += -std::log(1.0 - rng.uniform()) / requests_per_s;
    const double u = rng.uniform();
    const int clips = u < 0.7 ? 1 : (u < 0.9 ? 4 : 16);
    schedule.push_back(Arrival{due, clips});
  }
  return schedule;
}

OpenLoopResult run_open_loop(const std::vector<Arrival>& schedule,
                             int connections, const SendFn& send) {
  HOTSPOT_CHECK_GT(connections, 0);
  const std::size_t n = schedule.size();
  OpenLoopResult result;
  result.latency_s.assign(n, 0.0);
  result.late_s.assign(n, 0.0);
  result.ok.assign(n, 0);

  // One slot per connection thread: the generator fills `index` under the
  // mutex, the connection clears it when the answer is in.
  constexpr std::size_t kIdle = static_cast<std::size_t>(-1);
  std::mutex mutex;
  std::condition_variable changed;
  std::vector<std::size_t> assigned(static_cast<std::size_t>(connections),
                                    kIdle);
  bool done = false;
  const Clock::time_point start = Clock::now();

  auto connection_loop = [&](int c) {
    const auto slot = static_cast<std::size_t>(c);
    for (;;) {
      std::size_t index = kIdle;
      {
        std::unique_lock<std::mutex> lock(mutex);
        changed.wait(lock, [&] { return done || assigned[slot] != kIdle; });
        if (assigned[slot] == kIdle) {
          return;
        }
        index = assigned[slot];
      }
      const double due = schedule[index].due_s;
      result.late_s[index] = seconds_between(start, Clock::now()) - due;
      const bool ok = send(c, index);
      result.latency_s[index] = seconds_between(start, Clock::now()) - due;
      result.ok[index] = ok ? 1 : 0;
      {
        std::lock_guard<std::mutex> lock(mutex);
        assigned[slot] = kIdle;
      }
      changed.notify_all();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back(connection_loop, c);
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(schedule[i].due_s)));
    {
      std::unique_lock<std::mutex> lock(mutex);
      changed.wait(lock, [&] {
        return std::find(assigned.begin(), assigned.end(), kIdle) !=
               assigned.end();
      });
      *std::find(assigned.begin(), assigned.end(), kIdle) = i;
    }
    changed.notify_all();
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    changed.wait(lock, [&] {
      return std::all_of(assigned.begin(), assigned.end(),
                         [&](std::size_t a) { return a == kIdle; });
    });
    done = true;
  }
  changed.notify_all();
  for (std::thread& thread : threads) {
    thread.join();
  }
  result.elapsed_s = seconds_between(start, Clock::now());
  result.failed = static_cast<std::size_t>(
      std::count(result.ok.begin(), result.ok.end(), 0));
  return result;
}

ClosedLoopResult run_closed_loop(int connections, double seconds,
                                 const SendFn& send) {
  HOTSPOT_CHECK_GT(connections, 0);
  ClosedLoopResult result;
  std::mutex mutex;
  std::size_t next_index = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      while (Clock::now() < stop) {
        std::size_t index = 0;
        {
          std::lock_guard<std::mutex> lock(mutex);
          index = next_index++;
        }
        const bool ok = send(c, index);
        std::lock_guard<std::mutex> lock(mutex);
        if (ok) {
          ++result.completed;
          result.completed_indices.push_back(index);
        } else {
          ++result.failed;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  result.elapsed_s = seconds_between(start, Clock::now());
  return result;
}

int bisect_highest(int k_max, const std::function<bool(int)>& ok) {
  int lo = -1;         // highest k known to hold
  int hi = k_max + 1;  // lowest k known to fail
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (ok(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace hotspot::e2e
