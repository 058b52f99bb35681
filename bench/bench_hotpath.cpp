// Hot-path memory-layout benches (google-benchmark): the perf-CI gate for
// the arena/SoA/batched-fit work (DESIGN.md §11).
//
// The measurements and their gates in scripts/check_bench_regression.py:
//
//  * BM_FitTreap — ns per fit query across profile sizes: a recorded
//    latency series of the calendar's one fit path (the treap), gated
//    only by the per-benchmark regression factor.
//  * BM_ResschedSweep — end-to-end RESSCHED (BL_CPAR/BD_CPAR) over a
//    stream of 100-task DAGs against a 200-reservation competing calendar
//    on a 128-proc machine (the Table 4 working point). Counters:
//    jobs_per_sec (THROUGHPUT_BARS floor: 650 jobs/sec) and
//    allocs_per_job (heap allocation count via the operator-new override
//    below, COUNTER_CEILINGS gate).
//  * BM_DynamicSweep / BM_BlindSweep — the dynamic-arrivals and
//    probe-limited variants of the same working point, with the same
//    allocs_per_job ceiling treatment so the scratch-buffer discipline
//    covers every scheduling path, not just the static one.
//  * BM_ChurnSteadyState — commit/release churn on a warm calendar. After
//    warmup the treap node arena must serve every insert from its free
//    list: the arena_chunk_allocs counter (delta of
//    resv::arena_heap_allocs() across the timed loop, normalised per
//    iteration) is gated at 0.
//
// The checked-in baseline bench/BENCH_hotpath.json is produced with:
//   ./build/bench/bench_hotpath --benchmark_format=json
//       --benchmark_min_time=0.5 > bench/BENCH_hotpath.json
// (Release build; see README "Perf CI" for when re-pinning is legitimate.)
#include <benchmark/benchmark.h>

// GCC pairs every `delete` in this translation unit against the malloc-
// backed operator-new override below and flags the free() as mismatched.
// The override is malloc-backed by construction, so the diagnostic is
// spurious here (and only here — the override lives in this TU).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/core/blind_ressched.hpp"
#include "src/core/dynamic.hpp"
#include "src/core/ressched.hpp"
#include "src/dag/daggen.hpp"
#include "src/resv/arena.hpp"
#include "src/resv/batch_scheduler.hpp"
#include "src/resv/profile.hpp"
#include "src/util/rng.hpp"

// Process-wide heap allocation counter. Counting every operator-new call
// (not bytes) is deliberate: the arena/SoA/scratch-buffer work shows up as
// fewer calls, and a count survives allocator and libstdc++ changes better
// than a byte total. The benches snapshot the counter around their timed
// loops, so benchmark-harness setup outside the loop is not charged.
static std::atomic<std::uint64_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  auto a = static_cast<std::size_t>(align);
  std::size_t rounded = ((size ? size : 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace resched;

constexpr int kProcs = 128;

resv::AvailabilityProfile make_profile(int p, int reservations,
                                       std::uint64_t seed) {
  util::Rng rng(seed);
  resv::ReservationList list;
  for (int i = 0; i < reservations; ++i) {
    double start = rng.uniform(0.0, 7 * 86400.0);
    double dur = rng.uniform(0.5, 12.0) * 3600.0;
    int procs = static_cast<int>(rng.uniform_int(1, p / 2));
    list.push_back({start, start + dur, procs});
  }
  return resv::AvailabilityProfile(p, list);
}

dag::Dag make_dag(int n, std::uint64_t seed) {
  util::Rng rng(seed);
  dag::DagSpec spec;
  spec.num_tasks = n;
  return dag::generate(spec, rng);
}

// -- ns per fit query across calendar sizes -----------------------------
//
// Arg = reservation count; a calendar of R reservations has ~2R
// breakpoints (the "breakpoints" counter reports the exact figure). The
// query mix matches the RESSCHED inner loop: mostly earliest_fit at varied
// procs and not_before, with latest_fit sprinkled in for the deadline
// paths.

void BM_FitTreap(benchmark::State& state) {
  auto profile =
      make_profile(kProcs, static_cast<int>(state.range(0)), 0xF17);
  const int procs_cycle[] = {kProcs / 8, kProcs / 4, kProcs / 2, kProcs};
  int q = 0;
  for (auto _ : state) {
    int procs = procs_cycle[q % 4];
    double not_before = (q % 7) * 9000.0;
    if (q % 5 == 4) {
      benchmark::DoNotOptimize(
          profile.latest_fit(procs, 7200.0, 10 * 86400.0, not_before));
    } else {
      benchmark::DoNotOptimize(
          profile.earliest_fit(procs, 7200.0, not_before));
    }
    ++q;
  }
  state.counters["breakpoints"] =
      static_cast<double>(profile.breakpoints().size());
}
BENCHMARK(BM_FitTreap)->RangeMultiplier(2)->Range(4, 256);

// -- end-to-end RESSCHED sweep at the Table 4 working point --------------

void BM_ResschedSweep(benchmark::State& state) {
  // A stream of distinct applications, round-robin, so the sweep exercises
  // fresh DAG construction state (SoA arrays, CSR adjacency) rather than a
  // single hot DAG's caches.
  std::vector<dag::Dag> apps;
  for (std::uint64_t seed = 4; seed < 12; ++seed)
    apps.push_back(make_dag(100, seed));
  auto profile = make_profile(kProcs, 200, 5);
  core::ResschedParams params;  // BL_CPAR + BD_CPAR (Table 4's best pair)
  std::uint64_t jobs = 0;
  const std::uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const auto& app = apps[jobs % apps.size()];
    auto res = core::schedule_ressched(app, profile, 0.0, 96, params);
    benchmark::DoNotOptimize(res);
    ++jobs;
  }
  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["jobs_per_sec"] = benchmark::Counter(
      static_cast<double>(jobs), benchmark::Counter::kIsRate);
  state.counters["allocs_per_job"] =
      jobs == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(jobs);
}
BENCHMARK(BM_ResschedSweep)->Unit(benchmark::kMillisecond);

// -- dynamic-arrivals and probe-limited variants of the same sweep -------
//
// Same Table-4 working point, same allocs_per_job ceiling treatment: the
// scratch-buffer discipline (fused bottom_levels_into, hoisted query
// buffers) must hold on every scheduling path. Counters are ceilinged,
// not floored — these paths are not throughput gates.

void BM_DynamicSweep(benchmark::State& state) {
  std::vector<dag::Dag> apps;
  for (std::uint64_t seed = 4; seed < 8; ++seed)
    apps.push_back(make_dag(100, seed));
  auto profile = make_profile(kProcs, 200, 5);
  core::ResschedParams params;
  core::ArrivalModel arrivals;  // defaults: 2 arrivals/hour
  std::uint64_t jobs = 0;
  const std::uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    util::Rng rng(util::derive_seed(0xD1, {jobs}));
    auto res = core::schedule_ressched_dynamic(apps[jobs % apps.size()],
                                               profile, 0.0, 96, params, 30.0,
                                               arrivals, rng);
    benchmark::DoNotOptimize(res);
    ++jobs;
  }
  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["jobs_per_sec"] = benchmark::Counter(
      static_cast<double>(jobs), benchmark::Counter::kIsRate);
  state.counters["allocs_per_job"] =
      jobs == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(jobs);
}
BENCHMARK(BM_DynamicSweep)->Unit(benchmark::kMillisecond);

void BM_BlindSweep(benchmark::State& state) {
  std::vector<dag::Dag> apps;
  for (std::uint64_t seed = 4; seed < 8; ++seed)
    apps.push_back(make_dag(100, seed));
  auto profile = make_profile(kProcs, 200, 5);
  core::BlindParams params;
  std::uint64_t jobs = 0;
  const std::uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    // schedule_blind commits reservations through the facade, so each job
    // gets a fresh copy of the calendar — that copy is part of the
    // per-job allocation budget the ceiling pins.
    resv::BatchScheduler batch(profile);
    auto res =
        core::schedule_blind(apps[jobs % apps.size()], batch, 0.0, 96, params);
    benchmark::DoNotOptimize(res);
    ++jobs;
  }
  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["jobs_per_sec"] = benchmark::Counter(
      static_cast<double>(jobs), benchmark::Counter::kIsRate);
  state.counters["allocs_per_job"] =
      jobs == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(jobs);
}
BENCHMARK(BM_BlindSweep)->Unit(benchmark::kMillisecond);

// -- steady-state churn: the arena must not touch the heap ---------------

void BM_ChurnSteadyState(benchmark::State& state) {
  auto profile = make_profile(kProcs, 500, 0xC4);
  util::Rng rng(0xC5);
  const double span = 7 * 86400.0;
  // Warmup: run the same churn long enough that the node arena has grown
  // to the loop's peak working set. Every timed insert is then served from
  // the free list, so the chunk-allocation delta below must be zero.
  std::vector<resv::Reservation> live;
  for (int i = 0; i < 4096; ++i) {
    double start = rng.uniform(0.0, span);
    resv::Reservation r{start, start + rng.uniform(1.0, 8.0) * 3600.0,
                        static_cast<int>(rng.uniform_int(1, kProcs / 2))};
    profile.add(r);
    live.push_back(r);
    if (live.size() > 64) {
      profile.release(live.front());
      live.erase(live.begin());
    }
  }
  std::uint64_t iters = 0;
  const std::uint64_t chunks_before = resv::arena_heap_allocs();
  for (auto _ : state) {
    double start = rng.uniform(0.0, span);
    resv::Reservation r{start, start + rng.uniform(1.0, 8.0) * 3600.0,
                        static_cast<int>(rng.uniform_int(1, kProcs / 2))};
    profile.add(r);
    live.push_back(r);
    profile.release(live.front());
    live.erase(live.begin());
    benchmark::DoNotOptimize(profile);
    ++iters;
  }
  const std::uint64_t chunks = resv::arena_heap_allocs() - chunks_before;
  state.counters["arena_chunk_allocs"] =
      iters == 0 ? 0.0
                 : static_cast<double>(chunks);  // total, not per-op: gate is 0
}
BENCHMARK(BM_ChurnSteadyState);

}  // namespace

BENCHMARK_MAIN();
