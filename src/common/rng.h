// Deterministic random number generation. Every stochastic component takes
// an explicit seed so simulation runs are reproducible; nothing in the
// library reads entropy from the environment.
#pragma once

#include <cstdint>
#include <cstring>
#include <random>
#include <span>

namespace portus {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_{seed} {}

  std::uint64_t next_u64() { return engine_(); }

  // Uniform in [lo, hi] inclusive.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
    std::uniform_int_distribution<std::uint64_t> dist{lo, hi};
    return dist(engine_);
  }

  double uniform_real(double lo, double hi) {
    std::uniform_real_distribution<double> dist{lo, hi};
    return dist(engine_);
  }

  bool bernoulli(double p) {
    std::bernoulli_distribution dist{p};
    return dist(engine_);
  }

  // Fill a buffer with pseudo-random bytes (tensor payloads in tests).
  void fill(std::span<std::byte> out) {
    std::size_t i = 0;
    while (i + 8 <= out.size()) {
      const std::uint64_t v = engine_();
      std::memcpy(out.data() + i, &v, 8);
      i += 8;
    }
    if (i < out.size()) {
      const std::uint64_t v = engine_();
      std::memcpy(out.data() + i, &v, out.size() - i);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace portus
