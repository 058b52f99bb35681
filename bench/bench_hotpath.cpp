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
//  * BM_DeadlineContext — core::make_deadline_context for DL_RCBD_CPAR-λ
//    (the engine default) over a stream of 10-task DAGs on a 64-proc
//    machine, q_hist cycling {16, 40, 64}: one CPA(q_hist) allocation and
//    the guideline series, the deadline path's fixed cost per admission.
//    Counter: allocs_per_context (COUNTER_CEILINGS gate: the series reuses
//    one kernel workspace instead of rebuilding a sub-DAG per task).
//  * BM_CpaAllocate — CPA phase 1 (cpa::allocations) over 50-task daggen
//    DAGs, the size of most Table-4 sweep cells, at q = 1152 (the largest
//    sweep platform) and q = 200 (a typical q_hist there). Counter:
//    sweeps_per_grant, the allocation loop's full sweeps over the
//    processors it grants (COUNTER_CEILINGS gate: at most 0.5, where a
//    sweep per grant reads 1.0; needs metrics compiled in).
//  * BM_AdmissionScaling — engine-style admissions of the same 10-task
//    DAGs against calendars of ~500 and ~8000 breakpoints that differ
//    only in how far ahead they are booked. SCALING_CAPS gate: the long
//    calendar's admission costs at most 2x the short one's, within the
//    run (a pass that copied the calendar would pay O(R) per pass).
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
#include "src/core/resscheddl.hpp"
#include "src/core/tightest_deadline.hpp"
#include "src/cpa/cpa.hpp"
#include "src/dag/daggen.hpp"
#include "src/obs/obs.hpp"
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

// -- deadline context: the CPA guideline series ---------------------------

void BM_DeadlineContext(benchmark::State& state) {
  std::vector<dag::Dag> apps;
  for (std::uint64_t seed = 20; seed < 28; ++seed)
    apps.push_back(make_dag(10, seed));
  const int q_hists[] = {16, 40, 64};
  core::DeadlineParams params;  // DL_RCBD_CPAR-λ
  std::uint64_t contexts = 0;
  const std::uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    auto ctx = core::make_deadline_context(apps[contexts % apps.size()], 64,
                                           q_hists[contexts % 3], params);
    benchmark::DoNotOptimize(ctx);
    ++contexts;
  }
  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["contexts_per_sec"] = benchmark::Counter(
      static_cast<double>(contexts), benchmark::Counter::kIsRate);
  state.counters["allocs_per_context"] =
      contexts == 0
          ? 0.0
          : static_cast<double>(allocs) / static_cast<double>(contexts);
}
BENCHMARK(BM_DeadlineContext)->Unit(benchmark::kMicrosecond);

// -- CPA phase 1: grants per full sweep -----------------------------------

void BM_CpaAllocate(benchmark::State& state) {
  std::vector<dag::Dag> apps;
  for (std::uint64_t seed = 30; seed < 38; ++seed)
    apps.push_back(make_dag(50, seed));
  const int qs[] = {1152, 200};
  std::uint64_t runs = 0;
  obs::set_metrics_enabled(true);
  obs::registry().reset();
  for (auto _ : state) {
    auto alloc = cpa::allocations(apps[runs % apps.size()], qs[runs % 2]);
    benchmark::DoNotOptimize(alloc);
    ++runs;
  }
  obs::set_metrics_enabled(false);
  state.counters["runs_per_sec"] = benchmark::Counter(
      static_cast<double>(runs), benchmark::Counter::kIsRate);
#ifndef RESCHED_OBS_DISABLED
  std::uint64_t grants = 0, sweeps = 0;
  for (const obs::CounterSample& c : obs::registry().snapshot().counters) {
    if (c.name == "cpa.grants") grants = c.value;
    if (c.name == "cpa.sweeps") sweeps = c.value;
  }
  state.counters["sweeps_per_grant"] =
      grants == 0 ? 0.0
                  : static_cast<double>(sweeps) / static_cast<double>(grants);
#endif
}
BENCHMARK(BM_CpaAllocate)->Unit(benchmark::kMicrosecond);

// -- admission cost against long calendars --------------------------------
//
// Arg = target breakpoint count. The calendar books one reservation stream
// at a fixed density (a start every 30 min on average, 0.5-3 h long, 1-16
// of 64 procs, about half the machine busy), so the ~8000-breakpoint
// calendar is the ~500-breakpoint one booked 80 days further ahead, the
// way a daemon's calendar grows when backward passes place loose-deadline
// jobs late. Every admission below lands in the shared first days, so both
// sizes do the same scheduling work and differ only in calendar length.
// Iterations alternate the engine's two admission paths over 8 DAGs x
// q_hist {16, 40, 64}: a best-effort RESSCHED pass, then a DL_RCBD_CPAR-λ
// attempt (finish-floor filter, fresh context) at 1.25x that job's
// RESSCHED turnaround.

resv::AvailabilityProfile make_booked_profile(int p, int breakpoints) {
  util::Rng rng(0xB00C);
  resv::ReservationList list;
  for (int i = 0; i < breakpoints / 2; ++i) {
    double start = (i + rng.uniform(0.0, 1.0)) * 1800.0;
    double dur = rng.uniform(0.5, 3.0) * 3600.0;
    list.push_back(
        {start, start + dur, static_cast<int>(rng.uniform_int(1, 16))});
  }
  return resv::AvailabilityProfile(p, list);
}

void BM_AdmissionScaling(benchmark::State& state) {
  const auto profile =
      make_booked_profile(64, static_cast<int>(state.range(0)));
  struct Job {
    const dag::Dag* dag;
    int q_hist;
    double deadline;
  };
  std::vector<dag::Dag> apps;
  for (std::uint64_t seed = 20; seed < 28; ++seed)
    apps.push_back(make_dag(10, seed));
  std::vector<Job> jobs;
  core::ResschedParams fwd;
  for (const dag::Dag& app : apps)
    for (int q_hist : {16, 40, 64})
      jobs.push_back({&app, q_hist,
                      1.25 * core::schedule_ressched(app, profile, 0.0, q_hist,
                                                     fwd)
                                 .turnaround});
  core::DeadlineParams dl;  // DL_RCBD_CPAR-λ, the engine default
  std::vector<double> fastest;
  std::uint64_t admissions = 0;
  for (auto _ : state) {
    const Job& job = jobs[(admissions / 2) % jobs.size()];
    if (admissions % 2 == 0) {
      benchmark::DoNotOptimize(
          core::schedule_ressched(*job.dag, profile, 0.0, job.q_hist, fwd));
    } else {
      core::fastest_task_times(*job.dag, profile.capacity(), fastest);
      if (job.deadline >= core::evaluate_finish_floor(fastest, profile, 0.0))
        benchmark::DoNotOptimize(core::schedule_deadline(
            *job.dag, profile, 0.0, job.q_hist, job.deadline, dl));
    }
    ++admissions;
  }
  state.counters["admissions_per_sec"] = benchmark::Counter(
      static_cast<double>(admissions), benchmark::Counter::kIsRate);
  state.counters["breakpoints"] =
      static_cast<double>(profile.breakpoints().size());
}
BENCHMARK(BM_AdmissionScaling)
    ->Arg(500)
    ->Arg(8000)
    ->Unit(benchmark::kMicrosecond);

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
