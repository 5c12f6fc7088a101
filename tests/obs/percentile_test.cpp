#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "obs/metrics.h"
#include "util/rng.h"

namespace hotspot::obs {
namespace {

double exact_quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  const std::size_t index = static_cast<std::size_t>(
      std::min<double>(std::max(0.0, std::ceil(rank) - 1.0),
                       static_cast<double>(values.size() - 1)));
  return values[index];
}

TEST(HistogramQuantile, EmptyHistogramIsZero) {
  Histogram histogram(default_latency_buckets());
  EXPECT_EQ(histogram.quantile(0.5), 0.0);
}

TEST(HistogramQuantile, SingleBucketInterpolatesFromZero) {
  // All 4 observations in [0, 1): the median interpolates halfway.
  const std::vector<double> bounds = {1.0};
  const std::vector<std::uint64_t> buckets = {4, 0};
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, buckets, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, buckets, 1.0), 1.0);
}

TEST(HistogramQuantile, OverflowBucketClampsToLastBound) {
  const std::vector<double> bounds = {1.0, 2.0};
  const std::vector<std::uint64_t> buckets = {1, 1, 8};
  // 80% of mass is beyond the last bound; high quantiles clamp to it.
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, buckets, 0.99), 2.0);
}

TEST(HistogramQuantile, AlwaysFiniteRegressions) {
  // These four shapes used to leak inf/nan through format_double into
  // strict-JSON exports, which util/json rejects. Every result must now be
  // finite.
  // Empty bounds + only an overflow count: no bound to clamp to → 0.
  EXPECT_EQ(histogram_quantile({}, {5}, 0.5), 0.0);
  // Empty sample over empty bounds.
  EXPECT_EQ(histogram_quantile({}, {0}, 0.5), 0.0);
  // Prometheus-style +Inf-terminated bounds: interpolation inside the inf
  // bucket was lo + (inf - lo) * fraction = inf (nan at fraction == 0).
  const std::vector<double> inf_bounds = {1.0, 2.0,
                                          std::numeric_limits<double>::infinity()};
  const std::vector<std::uint64_t> inf_buckets = {1, 1, 8, 0};
  for (const double q : {0.0, 0.3, 0.5, 0.99, 1.0}) {
    const double estimate = histogram_quantile(inf_bounds, inf_buckets, q);
    ASSERT_TRUE(std::isfinite(estimate)) << "q=" << q;
    EXPECT_LE(estimate, 2.0) << "q=" << q;  // clamps to last finite bound
  }
  EXPECT_DOUBLE_EQ(histogram_quantile(inf_bounds, inf_buckets, 0.99), 2.0);
  // All bounds non-finite: nothing finite to clamp to → 0.
  const std::vector<double> only_inf = {
      std::numeric_limits<double>::infinity()};
  EXPECT_EQ(histogram_quantile(only_inf, {3, 0}, 0.5), 0.0);
}

TEST(HistogramQuantile, SingleBucketEdgeCases) {
  const std::vector<double> bounds = {1.0};
  // Everything in the overflow bucket of a one-bound histogram clamps to
  // that bound instead of inventing mass past it.
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, {0, 7}, 0.5), 1.0);
  // A single observation: every quantile lands inside [0, 1].
  for (const double q : {0.0, 0.5, 1.0}) {
    const double estimate = histogram_quantile(bounds, {1, 0}, q);
    EXPECT_GE(estimate, 0.0);
    EXPECT_LE(estimate, 1.0);
  }
}

TEST(Histogram, RejectsNonFiniteBounds) {
  EXPECT_DEATH(Histogram({1.0, std::numeric_limits<double>::infinity()}),
               "finite");
  EXPECT_DEATH(Histogram({std::nan("")}), "finite");
}

TEST(Histogram, NonFiniteObservationsStayOutOfSum) {
  // inf/nan observations are visible (count + overflow bucket) but must not
  // poison sum(): one bad stopwatch read would otherwise make every later
  // JSON export unparseable.
  Histogram histogram({1.0, 2.0});
  histogram.observe(0.5);
  histogram.observe(std::numeric_limits<double>::infinity());
  histogram.observe(std::nan(""));
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.bucket(2), 2u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.5);
  EXPECT_TRUE(std::isfinite(histogram.quantile(0.99)));
}

TEST(HistogramQuantile, MatchesExactQuantilesWithinBucketResolution) {
  // Log-uniform latencies through the default log-spaced buckets: the
  // estimate must land within one bucket ratio (~1.78x) of the exact
  // quantile, the advertised resolution of the estimator.
  util::Rng rng(20260807);
  const std::vector<double> bounds = default_latency_buckets();
  Histogram histogram(bounds);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    const double exponent = -5.5 + 4.0 * rng.uniform();
    const double value = std::pow(10.0, exponent);
    values.push_back(value);
    histogram.observe(value);
  }
  for (const double q : {0.5, 0.95, 0.99}) {
    const double exact = exact_quantile(values, q);
    const double estimate = histogram.quantile(q);
    EXPECT_GT(estimate, 0.0);
    const double ratio = estimate / exact;
    EXPECT_GT(ratio, 1.0 / 1.8) << "q=" << q;
    EXPECT_LT(ratio, 1.8) << "q=" << q;
  }
}

TEST(HistogramQuantile, MonotoneInQ) {
  util::Rng rng(7);
  Histogram histogram(default_latency_buckets());
  for (int i = 0; i < 1000; ++i) {
    histogram.observe(1e-4 * (1.0 + 10.0 * rng.uniform()));
  }
  double previous = 0.0;
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double value = histogram.quantile(q);
    EXPECT_GE(value, previous) << "q=" << q;
    previous = value;
  }
}

TEST(HistogramQuantile, SampleStructMatchesLiveHistogram) {
  Histogram histogram({0.5, 2.0});
  for (const double v : {0.1, 0.2, 0.3, 1.0, 3.0}) {
    histogram.observe(v);
  }
  HistogramSample sample;
  sample.bounds = histogram.bounds();
  sample.buckets = {histogram.bucket(0), histogram.bucket(1),
                    histogram.bucket(2)};
  sample.count = histogram.count();
  sample.sum = histogram.sum();
  for (const double q : {0.25, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(sample.quantile(q), histogram.quantile(q));
  }
}

TEST(HistogramQuantile, DefaultLatencyBucketsAreLogSpaced) {
  const std::vector<double> bounds = default_latency_buckets();
  ASSERT_EQ(bounds.size(), 31u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_NEAR(bounds[i] / bounds[i - 1], std::pow(10.0, 0.25), 1e-9);
  }
}

}  // namespace
}  // namespace hotspot::obs
