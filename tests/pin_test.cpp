// Pins of the house contract on small fixed inputs from perfbench's
// generators: what the program computes, as an FNV-1a hash of its output
// bytes, and how much work it does for it, as counts that read the same on
// every host. A hash changes only with a behaviour change named in
// CHANGES.md; a count only with a change to the work, its old and new
// figures given there.
//
// The Table-4 sweep: perfbench's cells (one scenario instance per
// application spec and batch-log platform, stratified as
// perfbench/perfbench.cpp's make_sweep_cells draws them, seed 1), each
// scheduled by the four RESSCHED bounding methods of Table 4 and by the
// dynamic-calendar variant (src/core/dynamic.hpp), which places tasks with
// the same earliest-completion loop.
//
// The instances themselves: every sweep cell of seeds 1 and 2 and four
// Grid'5000 instances, each as its scheduling instant, historical
// availability and calendar (sim::make_instance: a φ-tagged batch log, or
// the reservation log's own jobs, built into a profile).
//
// CPA's own work: runs, grants and full sweeps of the allocation loop over
// the sweep cells and over deadline contexts of replay-drawn DAGs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/algorithms.hpp"
#include "src/core/dynamic.hpp"
#include "src/core/ressched.hpp"
#include "src/core/resscheddl.hpp"
#include "src/cpa/cpa.hpp"
#include "src/obs/obs.hpp"
#include "src/online/replay.hpp"
#include "src/sim/scenario.hpp"
#include "src/util/rng.hpp"
#include "tests/fnv1a.hpp"
#include "tests/sweep_cells.hpp"

namespace {

using namespace resched;

constexpr std::uint64_t kSeed = 1;
// The pinned schedules' subset: every kStride-th cell, which keeps the test
// within a few seconds under ASan while covering every platform and most
// specs.
constexpr std::size_t kStride = 3;

/// Appends an instance's scheduling instant and historical availability,
/// then one line per canonical calendar step, the doubles as exact
/// hexfloats, to `out`.
void append_instance(const sim::Instance& inst, std::string& out) {
  char line[96];
  std::snprintf(line, sizeof line, "now %a q %d\n", inst.now, inst.q_hist);
  out += line;
  for (const auto& [t, value] : inst.profile.canonical_steps()) {
    std::snprintf(line, sizeof line, "%a %d\n", t, value);
    out += line;
  }
}

/// Appends one line per task — procs, start and finish, the doubles as
/// exact hexfloats — to `out`.
void append_schedule(const core::AppSchedule& schedule, std::string& out) {
  char line[96];
  for (const core::TaskReservation& t : schedule.tasks) {
    std::snprintf(line, sizeof line, "%d %a %a\n", t.procs, t.start, t.finish);
    out += line;
  }
}

core::DynamicResult schedule_dynamic(const sim::Instance& inst,
                                     const core::ResschedParams& params,
                                     std::size_t cell) {
  util::Rng rng(util::derive_seed(kSeed, {0xD1CE, cell}));
  return core::schedule_ressched_dynamic(inst.dag, inst.profile, inst.now,
                                         inst.q_hist, params, 60.0,
                                         core::ArrivalModel{}, rng);
}

/// Calendar queries one cell costs: the earliest fits and first-free
/// lookups of its four Table-4 schedules (what core.ressched.sweep_queries
/// and core.ressched.sweep_lookups count), and of its dynamic schedule,
/// competing arrivals' bookings included.
struct CellWork {
  std::uint64_t sweep_fits = 0;
  std::uint64_t sweep_lookups = 0;
  std::uint64_t dynamic_fits = 0;
  std::uint64_t dynamic_lookups = 0;
  bool operator==(const CellWork&) const = default;
};

/// CPA allocation work: `cpa::Kernel::allocate` calls, processors granted
/// and full bottom-level/top-level sweeps (the counters cpa.runs,
/// cpa.grants and cpa.sweeps).
struct CpaWork {
  std::uint64_t runs = 0;
  std::uint64_t grants = 0;
  std::uint64_t sweeps = 0;
  bool operator==(const CpaWork&) const = default;
};

#ifndef RESCHED_OBS_DISABLED
std::uint64_t counter(const char* name) {
  for (const obs::CounterSample& c : obs::registry().snapshot().counters)
    if (c.name == name) return c.value;
  return 0;
}

/// The CPA work `fn` does, read from a zeroed registry.
template <class Fn>
CpaWork cpa_work(Fn&& fn) {
  obs::registry().reset();
  fn();
  return {counter("cpa.runs"), counter("cpa.grants"), counter("cpa.sweeps")};
}
#endif

}  // namespace

// The schedules of the sweep: every cell, every Table-4 method and the
// dynamic variant (under BD_ALL, the bound with the most counts to sweep),
// each task's procs, start and finish.
TEST(SweepPin, Table4SchedulesAreByteIdentical) {
  const std::vector<sim::Instance> cells =
      sweep_cells::sweep_cells(kSeed, kStride);
  const std::vector<core::NamedRessched> algos = core::table4_algorithms();
  ASSERT_EQ(algos.front().params.bd, core::BdMethod::kAll);
  ASSERT_EQ(cells.size(), 54u);
  std::string bytes;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const sim::Instance& inst = cells[c];
    for (const core::NamedRessched& algo : algos)
      append_schedule(core::schedule_ressched(inst.dag, inst.profile, inst.now,
                                              inst.q_hist, algo.params)
                          .schedule,
                      bytes);
    append_schedule(schedule_dynamic(inst, algos.front().params, c).schedule,
                    bytes);
  }
  EXPECT_EQ(fnv::fnv1a(bytes), 0x4742da818504d6aeull)
      << bytes.size() << " bytes";
}

// The work behind those schedules, per cell. Placement skips processor
// counts whose completion cannot beat the incumbent (the ready-time bound
// and the first-free range skip of core::earliest_completion); dropping
// either moves these counts while every schedule above stays the same.
TEST(SweepPin, Table4CalendarWorkPerCell) {
#ifdef RESCHED_OBS_DISABLED
  GTEST_SKIP() << "metrics are compiled out";
#else
  // {sweep fits, sweep lookups, dynamic fits, dynamic lookups} per cell.
  static constexpr CellWork kExpected[] = {
      {911, 154, 459, 100}, {71, 36, 34, 20},
      {15803, 383, 7775, 256}, {583, 135, 314, 85},
      {4781, 373, 2348, 263}, {6614, 588, 4633, 363},
      {43739, 849, 20777, 584}, {487, 168, 267, 95},
      {5284, 214, 3054, 137}, {2407, 322, 1935, 193},
      {8707, 254, 6208, 166}, {462, 142, 744, 128},
      {2357, 188, 1427, 81}, {992, 154, 748, 69},
      {33192, 677, 20716, 417}, {408, 105, 126, 70},
      {4985, 315, 2563, 222}, {200, 76, 50, 40},
      {7946, 206, 4037, 149}, {352, 151, 221, 123},
      {727, 260, 993, 150}, {7755, 382, 4068, 211},
      {3564, 309, 12074, 164}, {215, 115, 385, 70},
      {1876, 293, 3749, 168}, {4362, 251, 1694, 197},
      {18467, 338, 10992, 201}, {668, 170, 265, 103},
      {5362, 215, 2862, 187}, {1716, 236, 1856, 164},
      {14659, 514, 10298, 352}, {318, 131, 164, 114},
      {1608, 187, 1592, 169}, {1646, 211, 969, 115},
      {19193, 446, 11163, 303}, {1408, 634, 715, 418},
      {2523, 207, 2139, 166}, {3631, 267, 2122, 179},
      {40359, 776, 30520, 523}, {207, 92, 50, 44},
      {6989, 385, 4608, 306}, {851, 165, 415, 129},
      {11976, 273, 8207, 172}, {283, 144, 249, 150},
      {7575, 361, 4603, 217}, {3449, 315, 1764, 208},
      {11949, 391, 5692, 273}, {210, 101, 62, 57},
      {5518, 323, 3055, 243}, {2046, 219, 1485, 141},
      {23438, 769, 17522, 677}, {347, 151, 187, 98},
      {7602, 382, 3840, 261}, {2116, 187, 1313, 198},
  };
  const std::vector<sim::Instance> cells =
      sweep_cells::sweep_cells(kSeed, kStride);
  const std::vector<core::NamedRessched> algos = core::table4_algorithms();
  std::vector<CellWork> got;
  obs::set_metrics_enabled(true);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const sim::Instance& inst = cells[c];
    CellWork work;
    obs::registry().reset();
    for (const core::NamedRessched& algo : algos)
      core::schedule_ressched(inst.dag, inst.profile, inst.now, inst.q_hist,
                              algo.params);
    work.sweep_fits = counter("core.ressched.sweep_queries");
    work.sweep_lookups = counter("core.ressched.sweep_lookups");
    obs::registry().reset();
    schedule_dynamic(inst, algos.front().params, c);
    work.dynamic_fits = counter("resv.fit.earliest");
    work.dynamic_lookups = counter("resv.fit.first_free");
    got.push_back(work);
  }
  obs::set_metrics_enabled(false);

  std::string table;
  bool same = got.size() == std::size(kExpected);
  for (std::size_t c = 0; c < got.size(); ++c) {
    const CellWork& w = got[c];
    const bool row_same = c < std::size(kExpected) && w == kExpected[c];
    same = same && row_same;
    table += (row_same ? "      {" : "  /**/{") +
             std::to_string(w.sweep_fits) + ", " +
             std::to_string(w.sweep_lookups) + ", " +
             std::to_string(w.dynamic_fits) + ", " +
             std::to_string(w.dynamic_lookups) + "},\n";
  }
  EXPECT_TRUE(same) << "per-cell work (rows marked /**/ moved):\n" << table;
#endif
}

// The instances every experiment starts from: perfbench's 160 sweep cells
// for seeds 1 and 2 and four Grid'5000 instances, each as its `now`,
// `q_hist` and canonical calendar steps. A change to how a batch log is
// φ-tagged and reshaped, or to how a reservation list becomes a calendar,
// fails here before it reaches a schedule.
TEST(InstancePin, SweepCellsAreByteIdentical) {
  std::string bytes;
  std::size_t cells = 0;
  for (const std::uint64_t seed : {1, 2})
    for (const sim::Instance& inst : sweep_cells::sweep_cells(seed)) {
      append_instance(inst, bytes);
      ++cells;
    }
  EXPECT_EQ(cells, 320u);
  const std::vector<sim::ScenarioSpec> g5k = sim::grid5000_scenarios();
  for (int i = 0; i < 4; ++i)
    append_instance(
        sim::make_instance(g5k[static_cast<std::size_t>(13 * i)], i,
                           11 * i + 3, kSeed),
        bytes);
  EXPECT_EQ(fnv::fnv1a(bytes), 0x2f87641478f46550ull) << bytes.size() << " bytes";
}

// CPA phase 1's work (paper §2.1, Table 8's V (V+E) P' term) on perfbench's
// inputs: the allocations of every sweep cell of seeds 1 and 2 at q_hist
// and at p, and the DL_RCBD_CPAR-λ deadline contexts (one CPA(q_hist) run
// and the q_hist guideline series) of 64 ten-task DAGs drawn as the
// replay draws them, on a 64-processor shard. Runs and grants are the
// textbook loop's (one processor per grant; generated from Σ(alloc − 1)
// without counters); a grant along an unchanged critical chain skips the
// sweeps, so full sweeps stay at most 0.4 per grant.
TEST(CpaPin, GrantsAndSweepsPerRun) {
#ifdef RESCHED_OBS_DISABLED
  GTEST_SKIP() << "metrics are compiled out";
#else
  // {runs, grants, sweeps}: seed 1 at q_hist, seed 1 at p, seed 2 at
  // q_hist, seed 2 at p, the deadline contexts.
  static constexpr CpaWork kExpected[] = {
      {160, 311177, 103304}, {160, 378774, 113379},
      {160, 309572, 112473}, {160, 365613, 125254},
      {576, 50445, 13801},
  };
  std::vector<CpaWork> got;
  obs::set_metrics_enabled(true);
  for (const std::uint64_t seed : {1, 2}) {
    const std::vector<sim::Instance> cells = sweep_cells::sweep_cells(seed);
    got.push_back(cpa_work([&] {
      for (const sim::Instance& inst : cells)
        cpa::allocations(inst.dag, inst.q_hist);
    }));
    got.push_back(cpa_work([&] {
      for (const sim::Instance& inst : cells)
        cpa::allocations(inst.dag, inst.profile.capacity());
    }));
  }
  online::ReplaySpec replay;
  replay.app.num_tasks = 10;
  replay.app.min_seq_time = 60.0;
  replay.app.max_seq_time = 3600.0;
  replay.seed = kSeed;
  got.push_back(cpa_work([&] {
    const int q_hists[] = {16, 40, 64};
    for (int i = 0; i < 64; ++i)
      core::make_deadline_context(
          online::submission_for_job(workload::Job{}, i, replay).dag, 64,
          q_hists[i % 3], core::DeadlineParams{});
  }));
  obs::set_metrics_enabled(false);

  std::string table;
  for (const CpaWork& w : got) {
    table += "      {" + std::to_string(w.runs) + ", " +
             std::to_string(w.grants) + ", " + std::to_string(w.sweeps) +
             "},\n";
    EXPECT_LE(static_cast<double>(w.sweeps),
              0.4 * static_cast<double>(w.grants))
        << "full sweeps per grant above 0.4";
  }
  EXPECT_TRUE(std::equal(got.begin(), got.end(), std::begin(kExpected),
                         std::end(kExpected)))
      << "CPA work moved:\n" << table;
#endif
}
