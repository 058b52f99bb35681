// Tightest achievable deadline per algorithm (paper §5.3).
//
// The paper's first deadline metric is the earliest deadline K for which an
// algorithm still produces a feasible schedule, found by binary search. The
// critical path length with every task on p processors lower-bounds any
// schedule; an exponential search upward from the BD_CPAR turn-around time
// brackets a feasible K, and bisection narrows the bracket to tolerance.
#pragma once

#include <span>
#include <vector>

#include "src/core/resscheddl.hpp"
#include "src/core/ressched.hpp"
#include "src/resv/fit_query.hpp"
#include "src/resv/profile.hpp"

namespace resched::core {

struct TightestDeadlineOptions {
  double rel_tol = 2e-3;   ///< bracket width vs (deadline − now)
  double abs_tol = 60.0;   ///< bracket width floor [seconds]
  int max_probes = 64;     ///< hard cap on feasibility probes
};

struct TightestDeadlineResult {
  double deadline = 0.0;        ///< tightest K found feasible
  DeadlineResult at_deadline;   ///< the schedule achieving it
  int probes = 0;               ///< feasibility probes spent
};

/// Calendar-aware lower bound on any feasible schedule's finish time. Every
/// task, whatever its allocation, occupies at least one processor for at
/// least its fastest execution time, and earliest_fit is monotone in the
/// duration — so each task finishes at or after the earliest 1-processor
/// window of that fastest time, and no deadline below the latest such
/// finish can be met. One earliest-fit query per task.
double earliest_finish_floor(const dag::Dag& dag,
                             const resv::AvailabilityProfile& competing,
                             double now);

/// The per-task queries behind earliest_finish_floor, split out so callers
/// that evaluate the same job against many calendars (the shard router's
/// spillover probes) build them once. The buffer is cleared first and
/// keeps its capacity. Queries depend only on the DAG, the platform
/// capacity, and `now` — never on a calendar.
void finish_floor_queries(const dag::Dag& dag, int capacity, double now,
                          std::vector<resv::FitQuery>& queries);

/// Floor value of prebuilt finish_floor_queries against one calendar;
/// earliest_finish_floor is finish_floor_queries plus this call.
double evaluate_finish_floor(std::span<const resv::FitQuery> queries,
                             const resv::AvailabilityProfile& calendar,
                             double now);

/// Finds the tightest deadline `params.algo` can meet at time `now`.
TightestDeadlineResult tightest_deadline(
    const dag::Dag& dag, const resv::AvailabilityProfile& competing,
    double now, int q_hist, const DeadlineParams& params,
    const TightestDeadlineOptions& opts = {});

}  // namespace resched::core
