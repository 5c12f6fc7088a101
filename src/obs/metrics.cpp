#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace hotspot::obs {

double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<std::uint64_t>& buckets,
                          double q) {
  HOTSPOT_CHECK_EQ(buckets.size(), bounds.size() + 1);
  std::uint64_t total = 0;
  for (const std::uint64_t count : buckets) {
    total += count;
  }
  if (total == 0 || bounds.empty()) {
    return 0.0;
  }
  // The result must always be finite: the estimate flows through
  // util::json_number into JSON exports, and the strict util/json parser
  // rejects inf/nan literals. Bounds sampled from the registry are finite by
  // construction (the Histogram constructor enforces it), but this free
  // function also serves hand-built samples — Prometheus-style bounds
  // legally end in +Inf — so ranks landing in or above a non-finite bound
  // clamp to the last finite one (0 when there is none).
  double last_finite = 0.0;
  for (std::size_t i = bounds.size(); i-- > 0;) {
    if (std::isfinite(bounds[i])) {
      last_finite = bounds[i];
      break;
    }
  }
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket > 0.0 && cumulative + in_bucket >= target) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = bounds[i];
      if (!std::isfinite(hi) || !std::isfinite(lo)) {
        // No finite width to interpolate across: lo + (hi - lo) * fraction
        // used to emit inf (or nan at fraction == 0) here.
        return last_finite;
      }
      const double fraction =
          std::clamp((target - cumulative) / in_bucket, 0.0, 1.0);
      return lo + (hi - lo) * fraction;
    }
    cumulative += in_bucket;
  }
  // Rank falls in the overflow bucket, which has no upper bound to
  // interpolate toward.
  return last_finite;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  HOTSPOT_CHECK(!bounds_.empty()) << "histogram needs at least one bound";
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    // Finite bounds keep every exported value (bucket bounds and the
    // interpolated quantiles) representable in strict JSON; the overflow
    // bucket already plays the +Inf role.
    HOTSPOT_CHECK(std::isfinite(bounds_[i]))
        << "histogram bounds must be finite";
  }
  for (std::size_t i = 0; i + 1 < bounds_.size(); ++i) {
    HOTSPOT_CHECK_LT(bounds_[i], bounds_[i + 1])
        << "histogram bounds must be strictly increasing";
  }
  for (std::size_t i = 0; i < bounds_.size() + 1; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe(double value) {
  if (!std::isfinite(value)) {
    // A non-finite duration is instrumentation failure, not data: make it
    // visible in the overflow bucket, but keep it out of sum_ so a single
    // poisoned observation cannot turn the JSON export into inf/nan.
    buckets_[bounds_.size()].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto index = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, value);
}

std::uint64_t Histogram::bucket(std::size_t index) const {
  HOTSPOT_CHECK_LT(index, bounds_.size() + 1);
  return buckets_[index].load(std::memory_order_relaxed);
}

double Histogram::quantile(double q) const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return histogram_quantile(bounds_, counts, q);
}

void Histogram::reset() {
  for (std::size_t i = 0; i < bounds_.size() + 1; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> default_duration_buckets() {
  return {1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0,
          10.0, 30.0, 100.0, 300.0};
}

std::vector<double> default_latency_buckets() {
  // 10^(-6 + i/4) for i = 0..30: 1 µs to ~31.6 s, ratio ~1.78 per bucket.
  std::vector<double> bounds;
  bounds.reserve(31);
  for (int i = 0; i <= 30; ++i) {
    bounds.push_back(std::pow(10.0, -6.0 + static_cast<double>(i) / 4.0));
  }
  return bounds;
}

double HistogramSample::quantile(double q) const {
  return histogram_quantile(bounds, buckets, q);
}

MetricsSnapshot MetricsSnapshot::delta_since(
    const MetricsSnapshot& earlier) const {
  MetricsSnapshot delta = *this;
  for (CounterSample& sample : delta.counters) {
    if (const CounterSample* base = earlier.find_counter(sample.name)) {
      sample.value -= std::min(base->value, sample.value);
    }
  }
  for (HistogramSample& sample : delta.histograms) {
    const HistogramSample* base = earlier.find_histogram(sample.name);
    if (base == nullptr || base->buckets.size() != sample.buckets.size()) {
      continue;
    }
    for (std::size_t i = 0; i < sample.buckets.size(); ++i) {
      sample.buckets[i] -= std::min(base->buckets[i], sample.buckets[i]);
    }
    sample.count -= std::min(base->count, sample.count);
    sample.sum -= base->sum;
  }
  return delta;
}

namespace {

template <typename SampleT>
const SampleT* find_sample(const std::vector<SampleT>& samples,
                           const std::string& name) {
  for (const SampleT& sample : samples) {
    if (sample.name == name) {
      return &sample;
    }
  }
  return nullptr;
}

}  // namespace

const CounterSample* MetricsSnapshot::find_counter(
    const std::string& name) const {
  return find_sample(counters, name);
}

const GaugeSample* MetricsSnapshot::find_gauge(const std::string& name) const {
  return find_sample(gauges, name);
}

const HistogramSample* MetricsSnapshot::find_histogram(
    const std::string& name) const {
  return find_sample(histograms, name);
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked so instrumentation in static-destruction paths (pool workers,
  // atexit handlers) never races registry teardown.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(bounds);
  } else {
    HOTSPOT_CHECK(slot->bounds() == bounds)
        << "histogram '" << name << "' re-registered with different bounds";
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, gauge->value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSample sample;
    sample.name = name;
    sample.bounds = histogram->bounds();
    sample.buckets.resize(histogram->bucket_count());
    for (std::size_t i = 0; i < sample.buckets.size(); ++i) {
      sample.buckets[i] = histogram->bucket(i);
    }
    sample.count = histogram->count();
    sample.sum = histogram->sum();
    snapshot.histograms.push_back(std::move(sample));
  }
  return snapshot;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    counter->reset();
  }
  for (const auto& [name, gauge] : gauges_) {
    gauge->reset();
  }
  for (const auto& [name, histogram] : histograms_) {
    histogram->reset();
  }
}

}  // namespace hotspot::obs
