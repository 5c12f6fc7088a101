#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace hotspot::util {
namespace {

// Restores the pool width after each test so ordering cannot leak state.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_parallel_threads(previous_); }
  int previous_ = parallel_threads();
};

TEST_F(ParallelTest, CoversAllIndicesExactlyOnce) {
  for (const int threads : {1, 2, 4}) {
    set_parallel_threads(threads);
    for (const std::int64_t n : {0LL, 1LL, 7LL, 64LL, 1000LL, 4097LL}) {
      std::vector<std::atomic<int>> visits(static_cast<std::size_t>(n));
      parallel_for(0, n, /*grain=*/8, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          visits[static_cast<std::size_t>(i)].fetch_add(1);
        }
      });
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(visits[static_cast<std::size_t>(i)].load(), 1)
            << "threads=" << threads << " n=" << n << " index=" << i;
      }
    }
  }
}

TEST_F(ParallelTest, HonorsNonZeroBegin) {
  set_parallel_threads(4);
  std::vector<int> visits(100, 0);
  parallel_for(10, 90, /*grain=*/4, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      visits[static_cast<std::size_t>(i)] += 1;
    }
  });
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(visits[static_cast<std::size_t>(i)], i >= 10 && i < 90 ? 1 : 0);
  }
}

TEST_F(ParallelTest, ChunksRespectGrainAndOrderWithinChunk) {
  set_parallel_threads(4);
  const std::int64_t n = 200;
  const std::int64_t grain = 16;
  std::mutex mutex;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  parallel_for(0, n, grain, [&](std::int64_t lo, std::int64_t hi) {
    std::lock_guard<std::mutex> lock(mutex);
    chunks.emplace_back(lo, hi);
  });
  std::int64_t covered = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_LT(lo, hi);
    // Every chunk but the ragged last one holds at least `grain` indices.
    if (hi != n) {
      EXPECT_GE(hi - lo, grain);
    }
    covered += hi - lo;
  }
  EXPECT_EQ(covered, n);
}

TEST_F(ParallelTest, EmptyAndReversedRangesAreNoOps) {
  set_parallel_threads(4);
  int calls = 0;
  parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  parallel_for(9, 3, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST_F(ParallelTest, NestedParallelForRunsInline) {
  set_parallel_threads(4);
  std::vector<std::atomic<int>> visits(64 * 16);
  parallel_for(0, 64, /*grain=*/1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      parallel_for(0, 16, 1, [&](std::int64_t jlo, std::int64_t jhi) {
        for (std::int64_t j = jlo; j < jhi; ++j) {
          visits[static_cast<std::size_t>(i * 16 + j)].fetch_add(1);
        }
      });
    }
  });
  for (const auto& visit : visits) {
    ASSERT_EQ(visit.load(), 1);
  }
}

TEST_F(ParallelTest, DeterministicSumAcrossThreadCounts) {
  // Per-index work reduced within one chunk element: identical results at
  // any pool width because chunk boundaries are thread-count-independent.
  const std::int64_t n = 10000;
  auto run = [&] {
    std::vector<double> partial(static_cast<std::size_t>(n));
    parallel_for(0, n, 64, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        partial[static_cast<std::size_t>(i)] =
            static_cast<double>(i) * 0.25 + 1.0;
      }
    });
    return std::accumulate(partial.begin(), partial.end(), 0.0);
  };
  set_parallel_threads(1);
  const double serial = run();
  for (const int threads : {2, 3, 4}) {
    set_parallel_threads(threads);
    EXPECT_EQ(serial, run()) << "threads=" << threads;
  }
}

TEST_F(ParallelTest, PropagatesException) {
  set_parallel_threads(4);
  EXPECT_THROW(
      parallel_for(0, 1000, 1,
                   [&](std::int64_t lo, std::int64_t) {
                     if (lo >= 500) {
                       throw std::runtime_error("boom");
                     }
                   }),
      std::runtime_error);
}

TEST_F(ParallelTest, SetParallelThreadsClampsToOne) {
  set_parallel_threads(0);
  EXPECT_EQ(parallel_threads(), 1);
  set_parallel_threads(-3);
  EXPECT_EQ(parallel_threads(), 1);
  set_parallel_threads(2);
  EXPECT_EQ(parallel_threads(), 2);
}

int parsed_or(const char* text, int fallback) {
  int out = fallback;
  return parse_thread_count_strict(text, &out) ? out : fallback;
}

TEST(ParseThreadCount, AcceptsPositiveIntegers) {
  EXPECT_EQ(parsed_or("1", 7), 1);
  EXPECT_EQ(parsed_or("4", 7), 4);
  EXPECT_EQ(parsed_or("128", 7), 128);
  EXPECT_EQ(parsed_or("1024", 7), kMaxThreadCount);
}

TEST(ParseThreadCount, RejectsUnset) {
  EXPECT_FALSE(parse_thread_count_strict(nullptr, nullptr));
  EXPECT_FALSE(parse_thread_count_strict("", nullptr));
}

TEST(ParseThreadCount, RejectsNonPositiveValues) {
  // HOTSPOT_NUM_THREADS=0 used to seed a zero-width pool.
  EXPECT_EQ(parsed_or("0", 7), 7);
  EXPECT_EQ(parsed_or("-3", 7), 7);
}

TEST(ParseThreadCount, RejectsGarbage) {
  EXPECT_EQ(parsed_or("abc", 7), 7);
  EXPECT_EQ(parsed_or("4x", 7), 7);
  EXPECT_EQ(parsed_or("x4", 7), 7);
  EXPECT_EQ(parsed_or("4.5", 7), 7);
  EXPECT_EQ(parsed_or(" ", 7), 7);
  EXPECT_EQ(parsed_or(" 4", 7), 7);
  EXPECT_EQ(parsed_or("+4", 7), 7);
}

TEST(ParseThreadCount, RejectsOverflowAndInsaneCounts) {
  // strtol would saturate these to LONG_MAX / truncate to int; the strict
  // parse must refuse instead of running a pool at a mangled width.
  EXPECT_EQ(parsed_or("99999999999999999999", 7), 7);
  EXPECT_EQ(parsed_or("99999999999", 7), 7);
  EXPECT_EQ(parsed_or("2147483648", 7), 7);  // INT_MAX + 1
  EXPECT_EQ(parsed_or("1025", 7), 7);        // over kMaxThreadCount
}

TEST(ParseThreadCountDeathTest, EnvGarbageExitsTwoWithOffendingValue) {
  // The env path is strict like HOTSPOT_SIMD: print the offending value
  // and exit 2, never a silent fallback or truncation.
  ASSERT_EQ(setenv("HOTSPOT_NUM_THREADS", "99999999999", 1), 0);
  EXPECT_EXIT(resolve_threads_from_env(), ::testing::ExitedWithCode(2),
              "HOTSPOT_NUM_THREADS='99999999999'");
  ASSERT_EQ(setenv("HOTSPOT_NUM_THREADS", "two", 1), 0);
  EXPECT_EXIT(resolve_threads_from_env(), ::testing::ExitedWithCode(2),
              "HOTSPOT_NUM_THREADS='two'");
  ASSERT_EQ(unsetenv("HOTSPOT_NUM_THREADS"), 0);
  EXPECT_GE(resolve_threads_from_env(), 1);
}

}  // namespace
}  // namespace hotspot::util
