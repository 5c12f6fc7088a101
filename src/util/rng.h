// Deterministic pseudo-random number generation.
//
// Every stochastic component in the library (dataset synthesis, weight
// initialization, mini-batch shuffling, augmentation) draws from an explicit
// Rng instance so experiments are reproducible bit-for-bit at a fixed seed.
// The generator is xoshiro256**, seeded through splitmix64 per the reference
// recommendation; it is small, fast, and has no global state.
#pragma once

#include <cstdint>
#include <vector>

namespace hotspot::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform random 64-bit word.
  std::uint64_t next_u64();

  // Uniform real in [0, 1).
  double uniform();

  // Uniform real in [lo, hi).
  double uniform(double lo, double hi);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  // Standard normal via Box-Muller (cached spare value).
  double normal();

  // Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  // True with probability p.
  bool bernoulli(double p);

  // Derives an independent child generator; children with distinct tags do
  // not share streams with the parent or each other.
  Rng fork(std::uint64_t tag);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  // Random permutation of [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  std::uint64_t state_[4];
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace hotspot::util
