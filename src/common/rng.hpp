#pragma once
// Seeded random number generation.
//
// Every stochastic component in the repo (dataset generators, scheduler
// traces, network jitter) draws from an explicitly seeded Rng so that
// tests and benches are deterministic and reproducible.

#include <cstdint>
#include <random>

namespace ocelot {

/// Thin wrapper over a 64-bit Mersenne Twister with convenience draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Normal draw with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Exponential draw with the given rate (mean = 1/rate).
  [[nodiscard]] double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Bernoulli draw with probability p of true.
  [[nodiscard]] bool chance(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace ocelot
