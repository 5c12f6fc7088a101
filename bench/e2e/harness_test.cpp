// The end-to-end benchmark's statistics and load generator.
#include "harness.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

namespace hotspot::e2e {
namespace {

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
}

// Expected values from Python: statistics.quantiles(values, n=4).
TEST(Stats, QuartilesMatchPythonStatisticsQuantiles) {
  struct Case {
    std::vector<double> values;
    Quartiles expected;
  };
  const Case cases[] = {
      {{1.0, 2.0}, {0.75, 1.5, 2.25}},
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {2.75, 5.5, 8.25}},
      {{5.0, 1.0, 4.0, 2.0, 3.0}, {1.5, 3.0, 4.5}},
      {{3.5, 1.25, 9.0, 2.0, 7.75, 4.5, 6.0}, {2.0, 4.5, 7.75}},
  };
  for (const Case& c : cases) {
    const Quartiles q = quartiles(c.values);
    EXPECT_DOUBLE_EQ(q.q1, c.expected.q1);
    EXPECT_DOUBLE_EQ(q.q2, c.expected.q2);
    EXPECT_DOUBLE_EQ(q.q3, c.expected.q3);
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = n; i > 0; --i) {
    values.push_back(static_cast<double>(i));
  }
  return values;
}

TEST(Stats, TailIsHighestPercentileWithTenSamplesBeyond) {
  const std::optional<Tail> thousand = tail_percentile(ramp(1000));
  ASSERT_TRUE(thousand.has_value());
  EXPECT_EQ(thousand->percentile, 99);
  EXPECT_DOUBLE_EQ(thousand->value, 990.0);  // 991..1000 lie beyond
  EXPECT_EQ(thousand->samples, 1000u);

  const std::optional<Tail> five_hundred = tail_percentile(ramp(500));
  ASSERT_TRUE(five_hundred.has_value());
  EXPECT_EQ(five_hundred->percentile, 98);
  EXPECT_DOUBLE_EQ(five_hundred->value, 490.0);

  const std::optional<Tail> twenty = tail_percentile(ramp(20));
  ASSERT_TRUE(twenty.has_value());
  EXPECT_EQ(twenty->percentile, 50);

  EXPECT_FALSE(tail_percentile(ramp(9)).has_value());
  EXPECT_FALSE(tail_percentile({}).has_value());
}

TEST(Schedule, PoissonScheduleIsAPureFunctionOfTheSeed) {
  const std::vector<Arrival> a = poisson_schedule(42, 200.0, 500);
  const std::vector<Arrival> b = poisson_schedule(42, 200.0, 500);
  const std::vector<Arrival> c = poisson_schedule(43, 200.0, 500);
  ASSERT_EQ(a.size(), 500u);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].clips, b[i].clips);
    differs = differs || a[i].due_s != c[i].due_s;
  }
  EXPECT_TRUE(differs);
}

TEST(Schedule, PoissonScheduleOffersTheRequestedClipRate) {
  const std::vector<Arrival> schedule = poisson_schedule(7, 400.0, 20000);
  double clips = 0.0;
  int singles = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    clips += schedule[i].clips;
    singles += schedule[i].clips == 1 ? 1 : 0;
    if (i > 0) {
      EXPECT_GT(schedule[i].due_s, schedule[i - 1].due_s);
    }
  }
  EXPECT_NEAR(clips / schedule.back().due_s, 400.0, 400.0 * 0.05);
  EXPECT_NEAR(singles / 20000.0, 0.7, 0.02);
}

TEST(OpenLoop, LatencyIsTimedFromTheDueTimeSoAStallInflatesLaterRequests) {
  // Requests every 10 ms on one connection; the fake server stalls 200 ms on
  // the first and answers the rest at once.
  std::vector<Arrival> schedule;
  for (int i = 0; i < 10; ++i) {
    schedule.push_back(Arrival{0.010 * (i + 1), 1});
  }
  const OpenLoopResult result =
      run_open_loop(schedule, 1, [](int, std::size_t index) {
        if (index == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
        return true;
      });
  ASSERT_EQ(result.latency_s.size(), schedule.size());
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GE(result.latency_s[0], 0.2);
  // Request 5 was due at 60 ms but could only be sent after the stall ended
  // at ~210 ms: its latency and lateness carry the wait.
  EXPECT_GE(result.latency_s[5], 0.14);
  EXPECT_GE(result.late_s[5], 0.14);
  // Later requests shrink back once the backlog drains.
  EXPECT_LT(result.latency_s[9], result.latency_s[1]);
}

TEST(OpenLoop, CountsFailures) {
  const std::vector<Arrival> schedule = {{0.0, 1}, {0.001, 4}, {0.002, 16}};
  const OpenLoopResult result = run_open_loop(
      schedule, 2, [](int, std::size_t index) { return index != 1; });
  EXPECT_EQ(result.failed, 1u);
  EXPECT_TRUE(result.ok[0]);
  EXPECT_FALSE(result.ok[1]);
}

TEST(Bisection, FindsTheHighestPassingRungOfAMonotoneFake) {
  for (int k_max : {0, 1, 7, 20}) {
    for (int threshold = -1; threshold <= k_max; ++threshold) {
      int evaluations = 0;
      const int found = bisect_highest(k_max, [&](int k) {
        ++evaluations;
        return k <= threshold;
      });
      EXPECT_EQ(found, threshold) << "k_max " << k_max;
      EXPECT_LE(evaluations,
                static_cast<int>(std::ceil(std::log2(k_max + 2.0))));
    }
  }
  EXPECT_EQ(bisect_highest(-1, [](int) { return true; }), -1);
}

}  // namespace
}  // namespace hotspot::e2e
