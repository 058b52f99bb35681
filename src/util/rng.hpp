// Deterministic, stream-splittable random number generation.
//
// All randomness in resched flows through Rng, a PCG32 generator seeded
// through SplitMix64. Experiment code derives independent streams with
// derive_seed(base, tags...), so results are identical whether scenarios run
// serially or on a thread pool, and any single instance can be replayed in
// isolation.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

namespace resched::util {

/// SplitMix64: used to expand / mix seeds (Steele et al., 2014).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from a base seed and a list of integer
/// tags (scenario index, instance index, purpose id, ...). Mixing is
/// non-commutative so (a,b) and (b,a) yield unrelated streams.
std::uint64_t derive_seed(std::uint64_t base,
                          std::initializer_list<std::uint64_t> tags);

/// PCG32 (O'Neill, 2014): small, fast, statistically strong 32-bit generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// UniformRandomBitGenerator interface (usable with <random> if desired).
  using result_type = std::uint32_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xffffffffu; }
  result_type operator()() { return next_u32(); }

  std::uint32_t next_u32();
  std::uint64_t next_u64();

  /// Advances the stream past `n` next_u32() draws in O(log n): the PCG32
  /// state is a linear congruential generator, and n steps of it compose
  /// into one multiply-add (Brown, "Random number generation with
  /// arbitrary strides", 1994). Equal to n calls of next_u32().
  void discard(std::uint64_t n);

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive), lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Exponential with the given mean (> 0).
  double exponential(double mean);
  /// Normal via Box–Muller (no cached spare: deterministic stream usage).
  double normal(double mean, double stddev);
  /// Lognormal such that the *underlying normal* has parameters mu, sigma.
  double lognormal(double mu, double sigma);
  /// True with probability prob (clamped to [0,1]). Draws one uniform()
  /// (two next_u32() words) when 0 < prob < 1 and nothing otherwise.
  bool bernoulli(double prob);

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<int> sample_without_replacement(int n, int k);

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

}  // namespace resched::util
