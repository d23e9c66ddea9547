// Seeded PRNG for workload generation and property tests.
//
// The std::mt19937_64 engine is fully specified, so Next() returns the same
// sequence on every standard library. The distributions are not: the
// algorithms behind std::uniform_int_distribution and
// std::uniform_real_distribution are implementation-defined, so
// NextBelow/NextInRange/NextDouble/NextBool (and the net::Workload traffic
// built on them) replay bit-for-bit only under one standard library. The
// differential fuzzer uses testing::Rng (testing/rng.h), which is portable.
#pragma once

#include <cstdint>
#include <random>

namespace ipsa::util {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x1905'2021ull) : engine_(seed) {}

  uint64_t Next() { return engine_(); }

  // Uniform in [0, bound); bound must be nonzero.
  uint64_t NextBelow(uint64_t bound) {
    return std::uniform_int_distribution<uint64_t>(0, bound - 1)(engine_);
  }

  // Uniform in [lo, hi] inclusive.
  uint64_t NextInRange(uint64_t lo, uint64_t hi) {
    return std::uniform_int_distribution<uint64_t>(lo, hi)(engine_);
  }

  double NextDouble() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  bool NextBool(double p_true = 0.5) { return NextDouble() < p_true; }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace ipsa::util
