// Unit tests for src/util: deterministic RNG streams, distributions,
// streaming statistics, environment helpers, and the worker pool's
// contract (every index once, inline single-thread runs, lowest throwing
// index wins, the barrier always completes). This binary is in the TSan
// leg for the pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/util/env.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"
#include "src/util/worker_pool.hpp"

namespace {

using namespace resched::util;

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(DeriveSeed, OrderSensitive) {
  EXPECT_NE(derive_seed(7, {1, 2}), derive_seed(7, {2, 1}));
}

TEST(DeriveSeed, TagSensitive) {
  EXPECT_NE(derive_seed(7, {1}), derive_seed(7, {2}));
  EXPECT_NE(derive_seed(7, {1}), derive_seed(8, {1}));
}

TEST(DeriveSeed, LengthSensitive) {
  EXPECT_NE(derive_seed(7, {1}), derive_seed(7, {1, 0}));
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

// discard(n) is the LCG jump-ahead: it must leave the stream exactly where
// n next_u32() calls would, for the edge counts (0, 1, 2, 3, 2^k +/- 1,
// where the squaring loop's bit handling could slip) and random counts up
// to 10^6, on several streams.
TEST(Rng, DiscardEqualsThatManyDraws) {
  std::vector<std::uint64_t> counts{0, 1, 2, 3};
  for (int k = 2; k <= 19; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    counts.insert(counts.end(), {p - 1, p, p + 1});
  }
  Rng pick(0xD15C);
  for (int i = 0; i < 8; ++i)
    counts.push_back(static_cast<std::uint64_t>(pick.uniform_int(0, 1000000)));
  for (const std::uint64_t seed : {1ull, 42ull, 0xC0FFEEull, ~0ull}) {
    for (const std::uint64_t n : counts) {
      Rng jumped(seed), stepped(seed);
      jumped.discard(n);
      for (std::uint64_t i = 0; i < n; ++i) stepped.next_u32();
      for (int i = 0; i < 4; ++i)
        ASSERT_EQ(jumped.next_u32(), stepped.next_u32())
            << "seed " << seed << " n " << n << " draw " << i;
    }
  }
}

// bernoulli draws two words for 0 < prob < 1 and none at the clamps: the
// count make_reservation_schedule jumps over for every job it skips.
TEST(Rng, BernoulliDrawsTwoWordsInsideTheClamps) {
  for (const double prob : {0.0, 0.1, 0.5, 0.999, 1.0}) {
    Rng coin(7), words(7);
    coin.bernoulli(prob);
    words.discard(prob > 0.0 && prob < 1.0 ? 2 : 0);
    EXPECT_EQ(coin.next_u32(), words.next_u32()) << "prob " << prob;
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanApproximatelyCentered) {
  Rng rng(11);
  Accumulator acc;
  for (int i = 0; i < 200000; ++i) acc.add(rng.uniform());
  EXPECT_NEAR(acc.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIntCoversAllValuesInclusive) {
  Rng rng(12);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(13);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, UniformIntRejectsBadRange) {
  Rng rng(14);
  EXPECT_THROW(rng.uniform_int(5, 4), resched::Error);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(15);
  Accumulator acc;
  for (int i = 0; i < 200000; ++i) acc.add(rng.exponential(3.0));
  EXPECT_NEAR(acc.mean(), 3.0, 0.05);
}

TEST(Rng, ExponentialIsNonNegative) {
  Rng rng(16);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.exponential(1.0), 0.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  Accumulator acc;
  for (int i = 0; i < 200000; ++i) acc.add(rng.normal(2.0, 0.5));
  EXPECT_NEAR(acc.mean(), 2.0, 0.01);
  EXPECT_NEAR(acc.stddev(), 0.5, 0.01);
}

TEST(Rng, LognormalMeanMatchesClosedForm) {
  Rng rng(18);
  Accumulator acc;
  double mu = 0.3, sigma = 0.8;
  for (int i = 0; i < 400000; ++i) acc.add(rng.lognormal(mu, sigma));
  EXPECT_NEAR(acc.mean(), std::exp(mu + sigma * sigma / 2.0), 0.03);
}

TEST(Rng, BernoulliEdgesAndRate) {
  Rng rng(19);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(20);
  for (int trial = 0; trial < 100; ++trial) {
    auto sample = rng.sample_without_replacement(20, 7);
    std::set<int> set(sample.begin(), sample.end());
    EXPECT_EQ(set.size(), 7u);
    for (int v : sample) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 20);
    }
  }
}

TEST(Rng, SampleWholePopulation) {
  Rng rng(21);
  auto sample = rng.sample_without_replacement(5, 5);
  std::set<int> set(sample.begin(), sample.end());
  EXPECT_EQ(set.size(), 5u);
}

TEST(Rng, SampleRejectsOversizedRequest) {
  Rng rng(22);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), resched::Error);
}

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
}

TEST(Accumulator, EmptyBehaviour) {
  Accumulator acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_THROW(acc.min(), resched::Error);
}

TEST(Accumulator, MergeMatchesSequential) {
  Accumulator whole, left, right;
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.uniform(-5, 5);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Accumulator, CvOfConstantIsZero) {
  Accumulator acc;
  acc.add(2.0);
  acc.add(2.0);
  EXPECT_DOUBLE_EQ(acc.cv(), 0.0);
}

TEST(Stats, MeanAndStddev) {
  std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, PearsonPerfectCorrelation) {
  std::vector<double> xs{1, 2, 3, 4, 5}, ys{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  std::vector<double> neg{10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonDegenerateCases) {
  std::vector<double> xs{1, 2, 3}, constant{5, 5, 5}, shorter{1, 2};
  EXPECT_EQ(pearson(xs, constant), 0.0);
  EXPECT_EQ(pearson(xs, shorter), 0.0);
  EXPECT_EQ(pearson({}, {}), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
}

TEST(Stats, PercentileValidatesInput) {
  EXPECT_THROW(percentile({}, 0.5), resched::Error);
  std::vector<double> xs{1.0};
  EXPECT_THROW(percentile(xs, 1.5), resched::Error);
}

TEST(Env, FallbacksAndParsing) {
  unsetenv("RESCHED_TEST_VAR");
  EXPECT_DOUBLE_EQ(env_double("RESCHED_TEST_VAR", 2.5), 2.5);
  setenv("RESCHED_TEST_VAR", "7.25", 1);
  EXPECT_DOUBLE_EQ(env_double("RESCHED_TEST_VAR", 2.5), 7.25);
  EXPECT_EQ(env_int("RESCHED_TEST_VAR", 1), 7);
  setenv("RESCHED_TEST_VAR", "garbage", 1);
  EXPECT_DOUBLE_EQ(env_double("RESCHED_TEST_VAR", 2.5), 2.5);
  // The whole token must be one finite number, and for env_int one that
  // fits an int: anything else falls back instead of reading a prefix or
  // casting out of range.
  for (const char* bad : {"4x", "inf", "nan"}) {
    setenv("RESCHED_TEST_VAR", bad, 1);
    EXPECT_DOUBLE_EQ(env_double("RESCHED_TEST_VAR", 2.5), 2.5) << bad;
  }
  for (const char* bad : {"4x", "1e10", "inf", "nan"}) {
    setenv("RESCHED_TEST_VAR", bad, 1);
    EXPECT_EQ(env_int("RESCHED_TEST_VAR", 3), 3) << bad;
  }
  unsetenv("RESCHED_TEST_VAR");
}

// --- WorkerPool --------------------------------------------------------------

TEST(WorkerPool, RunsEveryIndexOnce) {
  // A fresh pool's first run: its workers start up inside this run.
  for (int threads : {1, 2, 4, 8})
    for (int n : {1, 8, 100}) {
      WorkerPool pool(threads);
      EXPECT_EQ(pool.threads(), threads);
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      pool.run(n, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
      for (const auto& h : hits)
        ASSERT_EQ(h.load(), 1) << "threads=" << threads << " n=" << n;
    }
}

TEST(WorkerPool, RunsEveryIndexExactlyOnceAcrossEpochs) {
  // Repeated runs on one pool: each run is a new epoch for its workers.
  for (int threads : {1, 2, 4, 8}) {
    WorkerPool pool(threads);
    for (int epoch = 0; epoch < 20; ++epoch)
      for (int n : {1, 8, 100}) {
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
        pool.run(n, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
        for (const auto& h : hits)
          ASSERT_EQ(h.load(), 1) << "threads=" << threads << " n=" << n
                                 << " epoch=" << epoch;
      }
  }
}

TEST(WorkerPool, ZeroIndicesRunNothing) {
  WorkerPool pool(4);
  pool.run(0, [](int) { FAIL(); });
}

TEST(WorkerPool, SingleThreadRunsInline) {
  // One lane, or one index, runs on the caller in index order: no data
  // race on `order`, nothing for TSan to see.
  const std::thread::id caller = std::this_thread::get_id();
  WorkerPool pool(1);
  std::vector<int> order;
  pool.run(5, [&](int i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  WorkerPool wide(4);
  wide.run(1, [&](int) { EXPECT_EQ(std::this_thread::get_id(), caller); });
}

TEST(WorkerPool, PropagatesException) {
  // One throwing index: its exception, type and message, reaches the caller.
  for (int threads : {1, 2, 4, 8}) {
    WorkerPool pool(threads);
    try {
      pool.run(50, [](int i) {
        if (i == 17) throw resched::Error("boom");
      });
      FAIL() << "expected an exception, threads=" << threads;
    } catch (const resched::Error& e) {
      EXPECT_STREQ(e.what(), "boom") << "threads=" << threads;
    }
  }
}

TEST(WorkerPool, FirstExceptionWinsDeterministically) {
  // Every index >= 37 throws its own message; index 37's must reach the
  // caller whatever the thread count or interleaving.
  for (int threads : {1, 2, 4, 8}) {
    WorkerPool pool(threads);
    for (int rep = 0; rep < 10; ++rep) {
      try {
        pool.run(100, [](int i) {
          if (i >= 37) throw resched::Error("cell " + std::to_string(i));
        });
        FAIL() << "expected an exception";
      } catch (const resched::Error& e) {
        EXPECT_STREQ(e.what(), "cell 37")
            << "threads=" << threads << " rep=" << rep;
      }
    }
  }
}

TEST(WorkerPool, EveryIndexRunsAfterAThrowAndThePoolStaysUsable) {
  for (int threads : {1, 2, 4, 8}) {
    WorkerPool pool(threads);
    std::vector<std::atomic<int>> hits(6);
    try {
      pool.run(6, [&](int i) {
        hits[static_cast<std::size_t>(i)]++;
        if (i == 2 || i == 4)
          throw std::runtime_error("boom " + std::to_string(i));
      });
      FAIL() << "expected the pooled exception to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 2");  // lowest throwing index
    }
    // The barrier always completes: every index ran despite the throws.
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    std::atomic<int> after{0};
    pool.run(3, [&](int) { after++; });
    EXPECT_EQ(after.load(), 3);
  }
}

TEST(WorkerPool, ThrowNeverWedgesThePool) {
  // Regression: a throwing index must not wedge the pool — every lane
  // drains and the exception reaches the caller (this test hanging is the
  // failure mode), run after run, and the pool still joins its workers.
  WorkerPool pool(8);
  for (int rep = 0; rep < 20; ++rep) {
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.run(64,
                          [&](int i) {
                            ran++;
                            if (i == 10) throw resched::Error("cell 10");
                          }),
                 resched::Error);
    EXPECT_EQ(ran.load(), 64);
  }
}

TEST(WorkerPool, ValidatesArguments) {
  EXPECT_THROW(WorkerPool{0}, resched::Error);
  EXPECT_THROW(WorkerPool{-1}, resched::Error);
  WorkerPool pool(2);
  EXPECT_THROW(pool.run(-1, [](int) {}), resched::Error);
}

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    RESCHED_CHECK(false, "context message");
    FAIL() << "expected throw";
  } catch (const resched::Error& e) {
    EXPECT_NE(std::string(e.what()).find("context message"),
              std::string::npos);
  }
}

}  // namespace
