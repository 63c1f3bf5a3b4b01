// Deterministic random number generation.
//
// All synthetic workloads are generated from xoshiro256** seeded through
// SplitMix64, so every experiment is reproducible from a single seed and
// independent of the platform's std::mt19937 quirks.
#pragma once

#include <cstdint>
#include <vector>

namespace pgasemb {

/// SplitMix64 — used for seeding and as a cheap stateless mixer.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// xoshiro256** 1.0 — the library-wide PRNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eedULL);

  std::uint64_t next();

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t nextBounded(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniformDouble();

  /// Uniform double in [lo, hi).
  double uniformDouble(double lo, double hi);

  /// Standard normal via Box–Muller (cached spare value).
  double normal();

  /// Fisher–Yates shuffle.
  template <typename T>  // pgaslint:allow(unused-decl) Rng tests
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(nextBounded(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Fork a statistically independent child stream.
  Rng fork();

 private:
  std::uint64_t s_[4];
  bool has_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace pgasemb
