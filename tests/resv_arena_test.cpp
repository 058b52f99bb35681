// Arena-path differential and allocation-count suite (DESIGN.md §11).
//
// resv_index_test.cpp owns the broad randomized differential harness; this
// suite targets the memory-layout machinery specifically:
//
//   * churn that hammers the treap-node free list (release → re-add over
//     and over) must stay byte-identical to the LinearProfile oracle;
//   * steady-state churn must not touch the heap: the process-wide
//     resv::arena_heap_allocs() counter is a deterministic regression
//     signal where wall-clock noise would hide an accidental allocation;
//   * calendar clones (one per RESSCHED/RESSCHEDDL pass) must be served
//     from the thread-local chunk cache once the thread is warm.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "src/resv/arena.hpp"
#include "src/resv/linear_profile.hpp"
#include "src/resv/profile.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace resched;
using resv::AvailabilityProfile;
using resv::LinearProfile;
using resv::Reservation;

Reservation random_reservation(util::Rng& rng, int capacity) {
  double start = rng.uniform(0.0, 200.0) * 3600.0;
  double dur = rng.uniform(0.25, 12.0) * 3600.0;
  int procs = static_cast<int>(rng.uniform_int(1, capacity));
  return {start, start + dur, procs};
}

/// Asserts the full observable surface matches the oracle bitwise. The
/// queries are seeded, so a divergence replays from the test's seed.
void expect_matches_oracle(const AvailabilityProfile& indexed,
                           const LinearProfile& oracle, util::Rng& rng,
                           int step) {
  ASSERT_EQ(indexed.breakpoints(), oracle.breakpoints())
      << "breakpoints diverged at churn step " << step;
  const int cap = indexed.capacity();
  for (int q = 0; q < 8; ++q) {
    int procs = static_cast<int>(rng.uniform_int(1, cap));
    double duration = rng.uniform(0.1, 24.0 * 3600.0);
    double not_before = rng.uniform(0.0, 180.0) * 3600.0;
    double deadline = not_before + rng.uniform(1.0, 80.0) * 3600.0;
    std::optional<double> a = indexed.earliest_fit(procs, duration, not_before);
    std::optional<double> b = oracle.earliest_fit(procs, duration, not_before);
    ASSERT_EQ(a, b) << "earliest_fit diverged at churn step " << step;
    a = indexed.latest_fit(procs, duration, deadline, not_before);
    b = oracle.latest_fit(procs, duration, deadline, not_before);
    ASSERT_EQ(a, b) << "latest_fit diverged at churn step " << step;
  }
}

/// Seeded interleaved commit / release / compact churn, compared against
/// the oracle after every mutation.
void churn_differential(std::uint64_t seed) {
  constexpr int kCapacity = 64;
  util::Rng rng(util::derive_seed(0xA4E7A, {seed}));
  AvailabilityProfile indexed(kCapacity);
  LinearProfile oracle(kCapacity);
  std::vector<Reservation> live;

  for (int step = 0; step < 400; ++step) {
    double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.5 || live.empty()) {
      // Commit a small group, like the engines commit a scheduled job.
      int n = static_cast<int>(rng.uniform_int(1, 4));
      std::vector<Reservation> group;
      for (int k = 0; k < n; ++k)
        group.push_back(random_reservation(rng, kCapacity));
      indexed.commit(group);
      for (const Reservation& r : group) {
        oracle.add(r);
        live.push_back(r);
      }
    } else if (dice < 0.9) {
      // Release a random live reservation: the erased treap nodes go to
      // the free list, and the next commit must recycle them.
      auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live.size()) - 1));
      indexed.release(live[pick]);
      oracle.release(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      // Age out the oldest quarter of the horizon.
      double horizon = rng.uniform(0.0, 50.0) * 3600.0;
      indexed.compact(horizon);
      oracle.compact(horizon);
      std::erase_if(live,
                    [horizon](const Reservation& r) { return r.start < horizon; });
    }
    expect_matches_oracle(indexed, oracle, rng, step);
  }
}

TEST(ResvArena, ChurnMatchesOracleOnTreapPath) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) churn_differential(seed);
}

TEST(ResvArena, SteadyStateChurnDoesNotTouchTheHeap) {
  constexpr int kCapacity = 64;
  util::Rng rng(0x57EAD);
  AvailabilityProfile profile(kCapacity);
  std::vector<Reservation> live;

  // Warmup: grow the arena to the churn loop's peak working set.
  for (int i = 0; i < 2048; ++i) {
    profile.add(random_reservation(rng, kCapacity));
    live.push_back(random_reservation(rng, kCapacity));
    profile.add(live.back());
    if (live.size() > 48) {
      profile.release(live.front());
      live.erase(live.begin());
    }
  }

  // Steady state: every insert must be served from the free list. The
  // counter is process-wide, but gtest runs cases sequentially so the
  // delta can only come from this loop.
  const std::uint64_t before = resv::arena_heap_allocs();
  for (int i = 0; i < 2048; ++i) {
    live.push_back(random_reservation(rng, kCapacity));
    profile.add(live.back());
    profile.release(live.front());
    live.erase(live.begin());
  }
  EXPECT_EQ(resv::arena_heap_allocs() - before, 0u)
      << "steady-state churn fell through to the heap";
}

TEST(ResvArena, CloneChurnIsServedFromTheChunkCache) {
  constexpr int kCapacity = 64;
  util::Rng rng(0xC10);
  AvailabilityProfile profile(kCapacity);
  for (int i = 0; i < 300; ++i)
    profile.add(random_reservation(rng, kCapacity));

  // First clone may pull fresh chunks; destroying it parks them in the
  // thread-local cache, so every later clone of the same working set is
  // heap-free — the RESSCHED inner loop clones a calendar per pass.
  { AvailabilityProfile warmup = profile; }
  const std::uint64_t before = resv::arena_heap_allocs();
  for (int i = 0; i < 32; ++i) {
    AvailabilityProfile clone = profile;
    clone.add({1000.0, 2000.0, 3});
  }
  EXPECT_EQ(resv::arena_heap_allocs() - before, 0u)
      << "calendar clones bypassed the thread-local chunk cache";
}

TEST(ResvArena, PoolStatsAccountForFreeListReuse) {
  resv::StepIndex index(64);
  // Insert/erase the same breakpoints repeatedly: after the first round
  // every node creation must come from the free list, and the chunk count
  // must stop growing.
  for (int round = 0; round < 16; ++round) {
    for (int i = 0; i < 32; ++i)
      index.range_add(i * 100.0, i * 100.0 + 50.0, -4);
    for (int i = 0; i < 32; ++i) {
      index.range_add(i * 100.0, i * 100.0 + 50.0, 4);
      index.coalesce_at(i * 100.0 + 50.0);
      index.coalesce_at(i * 100.0);
    }
  }
  auto stats = index.pool_stats();
  // `reused` counts the subset of `created` served from the free list:
  // only the first round may carve fresh slots.
  EXPECT_GT(stats.reused, stats.created / 2)
      << "churned index should recycle nearly every node it creates";
  EXPECT_LE(stats.chunks, 2u) << "bounded working set must not grow chunks";
}
}  // namespace
