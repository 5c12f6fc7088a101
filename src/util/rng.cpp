#include "util/rng.h"

#include <cmath>
#include <numbers>

#include "util/check.h"

namespace hotspot::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // splitmix64 expansion guarantees a non-zero xoshiro state for any seed.
  std::uint64_t sm = seed;
  for (auto& word : state_) {
    word = splitmix64(sm);
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  HOTSPOT_CHECK(lo <= hi) << "invalid range [" << lo << ", " << hi << ")";
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  HOTSPOT_CHECK(lo <= hi) << "invalid range [" << lo << ", " << hi << "]";
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  // Rejection sampling removes modulo bias.
  const std::uint64_t limit = std::uint64_t(-1) - std::uint64_t(-1) % span;
  std::uint64_t draw;
  do {
    draw = next_u64();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % span);
}

double Rng::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  spare_normal_ = radius * std::sin(angle);
  has_spare_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) {
  HOTSPOT_CHECK_GE(stddev, 0.0);
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) {
  HOTSPOT_CHECK(p >= 0.0 && p <= 1.0) << "p=" << p;
  return uniform() < p;
}

Rng Rng::fork(std::uint64_t tag) {
  // Mix the tag with fresh output so forks are decorrelated from the parent
  // stream and from forks with other tags.
  const std::uint64_t base = next_u64();
  return Rng(base ^ (tag * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL));
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  shuffle(order);
  return order;
}

}  // namespace hotspot::util
