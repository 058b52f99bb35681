// RESSCHED — minimizing turn-around time under advance reservations
// (paper §4).
//
// All algorithms share two phases:
//   1. compute a bottom level for every task (four BL_* variants differ in
//      the allocations assumed while doing so) and sort tasks by decreasing
//      bottom level;
//   2. for each task in order, choose the <processor count, start time>
//      pair with the earliest completion time among feasible fits in the
//      reservation calendar, with the processor count bounded by one of the
//      BD_* variants.
//
// The 4 x 3 combinations of the paper (plus the BD_HALF strawman of §4.3.2)
// are all expressible; BL_CPA_BD_CPA on an empty calendar reproduces the
// plain CPA schedule exactly.
//
// Worst-case complexities (paper Table 8), with V tasks, E edges, P
// processors, P' the historical average availability, and R competing
// reservations: phase 1 is dominated by the CPA allocation runs,
// O(V (V+E) P') (plus O(V (V+E) P) when a *_CPA variant also needs the
// full-platform allocations); phase 2 tries up to N processor counts per
// task against a calendar that grows by one reservation per task,
// O(V R N + V^2 N) with N = P for BD_ALL / BD_CPA and N = P' for BD_CPAR:
//
//   BD_ALL   O(V^2 P' + V^2 P + V E P' + V R P)
//   BD_CPA   O(V^2 P' + V^2 P + V E P' + V E P + V R P)
//   BD_CPAR  O(V^2 P' + V E P' + V R P')
//
// These worst cases still hold: a CPA grant along an unchanged critical
// chain skips the O(V+E) sweeps (src/cpa/kernel.hpp), but a grant whose
// critical path may change sweeps as before, so a DAG on which the path
// changes at every grant costs the full V (V+E) P'.
//
// Placement rule (earliest_completion): counts are tried from the bound
// down, and two exact bounds keep most of them from reaching the calendar.
// ready + exec(np) lower-bounds every completion at np or below, so the
// scan stops once it cannot beat the incumbent. And one first_free lookup
// at np gives `at`, the first instant np processors are free, and the most
// processors free before it: every count in between shares that `at`, so
// when at + exec(np) is strictly later than the incumbent's completion the
// whole range is skipped without a fit query (DESIGN.md §11, "Dominated
// processor counts"). Equality still queries, because ties go to fewer
// processors. Schedules are exactly those of the full scan.
#pragma once

#include <cstdint>

#include "src/core/schedule.hpp"
#include "src/cpa/cpa.hpp"
#include "src/dag/dag.hpp"
#include "src/resv/profile.hpp"

namespace resched::core {

/// How task execution times are estimated when computing bottom levels
/// (paper §4.2, question 1).
enum class BlMethod {
  kOne,   ///< BL_1   — every task on a single processor
  kAll,   ///< BL_ALL — every task on all p processors
  kCpa,   ///< BL_CPA — CPA allocations computed with q = p
  kCpar,  ///< BL_CPAR — CPA allocations computed with q = historical average
};

/// How per-task allocations are bounded in phase 2 (paper §4.2, question 2).
enum class BdMethod {
  kAll,   ///< BD_ALL  — bounded only by p
  kHalf,  ///< BD_HALF — arbitrarily bounded by p / 2 (§4.3.2 strawman)
  kCpa,   ///< BD_CPA  — bounded by CPA allocations with q = p
  kCpar,  ///< BD_CPAR — bounded by CPA allocations with q = historical avg
};

const char* to_string(BlMethod m);
const char* to_string(BdMethod m);

struct ResschedParams {
  BlMethod bl = BlMethod::kCpar;
  BdMethod bd = BdMethod::kCpar;
  cpa::Options cpa;  ///< stopping-criterion selection for the CPA phases
};

struct ResschedResult {
  AppSchedule schedule;
  double turnaround = 0.0;
  double cpu_hours = 0.0;
};

/// Computes a schedule at time `now` on the platform described by
/// `competing` (capacity + existing reservations). `q_hist` is the
/// historical average number of available processors used by the *_CPAR
/// variants (see resv::historical_average_available).
ResschedResult schedule_ressched(const dag::Dag& dag,
                                 const resv::AvailabilityProfile& competing,
                                 double now, int q_hist,
                                 const ResschedParams& params);

/// Calendar work one or more earliest_completion placements issued.
struct PlacementWork {
  std::uint64_t fits = 0;     ///< earliest_fit queries
  std::uint64_t lookups = 0;  ///< first_free lookups
};

/// Phase 2 for one task (paper §4.2): over processor counts np in
/// [1, bound], the <np, start> pair whose earliest fit from `ready` in
/// `profile` completes first, ties to the smaller count. Counts the
/// answer cannot come from are skipped without a fit query (see the
/// placement rule above); the calendar queries issued are added to `work`.
/// The one placement loop of schedule_ressched and
/// schedule_ressched_dynamic.
TaskReservation earliest_completion(const resv::AvailabilityProfile& profile,
                                    const dag::TaskCost& cost, int bound,
                                    double ready, PlacementWork& work);

/// Shared helper: per-task allocations used to compute bottom levels.
std::vector<int> bl_allocations(const dag::Dag& dag, int p, int q_hist,
                                BlMethod method, const cpa::Options& cpa);

/// Shared helper: per-task allocation bounds for phase 2.
std::vector<int> bd_bounds(const dag::Dag& dag, int p, int q_hist,
                           BdMethod method, const cpa::Options& cpa);

}  // namespace resched::core
