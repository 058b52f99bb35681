#include "src/util/rng.hpp"

#include <cmath>
#include <numbers>

#include "src/util/error.hpp"

namespace resched::util {

namespace {
constexpr std::uint64_t kMultiplier = 6364136223846793005ULL;  // PCG32's LCG
}  // namespace

std::uint64_t derive_seed(std::uint64_t base,
                          std::initializer_list<std::uint64_t> tags) {
  SplitMix64 mixer(base);
  std::uint64_t acc = mixer.next();
  for (std::uint64_t tag : tags) {
    // Feed each tag through the mixer chained with the accumulator so the
    // derivation is sensitive to both tag values and their order.
    SplitMix64 step(acc ^ (tag + 0x9e3779b97f4a7c15ULL));
    acc = step.next();
  }
  return acc;
}

Rng::Rng(std::uint64_t seed) {
  SplitMix64 mixer(seed);
  state_ = mixer.next();
  inc_ = mixer.next() | 1ULL;  // stream selector must be odd
  next_u32();
}

std::uint32_t Rng::next_u32() {
  std::uint64_t old = state_;
  state_ = old * kMultiplier + inc_;
  auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

void Rng::discard(std::uint64_t n) {
  // state' = mult * state + plus after n steps, built by squaring: one
  // step is (A, inc), and 2^k steps compose from 2^(k-1) steps twice.
  std::uint64_t mult = 1;
  std::uint64_t plus = 0;
  std::uint64_t step_mult = kMultiplier;
  std::uint64_t step_plus = inc_;
  for (; n > 0; n >>= 1) {
    if (n & 1u) {
      mult *= step_mult;
      plus = plus * step_mult + step_plus;
    }
    step_plus = (step_mult + 1) * step_plus;
    step_mult *= step_mult;
  }
  state_ = mult * state_ + plus;
}

std::uint64_t Rng::next_u64() {
  return (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
}

double Rng::uniform() {
  // 53 random bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  RESCHED_CHECK(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  RESCHED_CHECK(lo <= hi, "uniform_int(lo, hi) requires lo <= hi");
  auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  std::uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return lo + static_cast<std::int64_t>(v % range);
}

double Rng::exponential(double mean) {
  RESCHED_CHECK(mean > 0.0, "exponential mean must be positive");
  double u = uniform();
  return -mean * std::log1p(-u);
}

double Rng::normal(double mean, double stddev) {
  // Box–Muller; consumes exactly two uniforms per call.
  double u1 = uniform();
  double u2 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

bool Rng::bernoulli(double prob) {
  if (prob <= 0.0) return false;
  if (prob >= 1.0) return true;
  return uniform() < prob;
}

std::vector<int> Rng::sample_without_replacement(int n, int k) {
  RESCHED_CHECK(n >= 0 && k >= 0 && k <= n,
                "sample_without_replacement requires 0 <= k <= n");
  // Partial Fisher–Yates over an index vector.
  std::vector<int> idx(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < k; ++i) {
    auto j = static_cast<std::size_t>(uniform_int(i, n - 1));
    std::swap(idx[static_cast<std::size_t>(i)], idx[j]);
  }
  idx.resize(static_cast<std::size_t>(k));
  return idx;
}

}  // namespace resched::util
