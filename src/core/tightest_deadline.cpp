#include "src/core/tightest_deadline.hpp"

#include <algorithm>

#include "src/obs/obs.hpp"
#include "src/util/error.hpp"

namespace resched::core {

void finish_floor_queries(const dag::Dag& dag, int capacity, double now,
                          std::vector<resv::FitQuery>& queries) {
  queries.clear();
  queries.reserve(static_cast<std::size_t>(dag.size()));
  for (int task = 0; task < dag.size(); ++task) {
    // exec_time is weakly decreasing in np — dividing and adding positive
    // terms are monotone under IEEE rounding — so the minimum over np in
    // [1, capacity] is exactly exec_time at full capacity: the same double
    // the old O(P) min scan produced, without the scan.
    double emin = dag::exec_time(dag.cost(task), capacity);
    queries.push_back(resv::FitQuery::earliest(1, emin, now));
  }
}

double evaluate_finish_floor(std::span<const resv::FitQuery> queries,
                             const resv::AvailabilityProfile& calendar,
                             double now) {
  double floor = now;
  for (const resv::FitQuery& q : queries) {
    auto fit = calendar.earliest_fit(q.procs, q.duration, q.not_before);
    RESCHED_ASSERT(fit.has_value(), "1-processor fit must always exist");
    floor = std::max(floor, *fit + q.duration);
  }
  return floor;
}

double earliest_finish_floor(const dag::Dag& dag,
                             const resv::AvailabilityProfile& competing,
                             double now) {
  OBS_SPAN("core.tightest.finish_floor");
  std::vector<resv::FitQuery> queries;
  finish_floor_queries(dag, competing.capacity(), now, queries);
  return evaluate_finish_floor(queries, competing, now);
}

TightestDeadlineResult tightest_deadline(
    const dag::Dag& dag, const resv::AvailabilityProfile& competing,
    double now, int q_hist, const DeadlineParams& params,
    const TightestDeadlineOptions& opts) {
  OBS_PHASE("core.tightest_deadline");
  auto ctx = make_deadline_context(dag, competing.capacity(), q_hist,
                                   params.cpa, guidelines_for(params.algo));

  TightestDeadlineResult result;
  // Quick-infeasible filter: probes below the calendar-aware finish floor
  // are provably infeasible, so the backward pass is skipped. They still
  // count (++probes) and return exactly what schedule_deadline returns when
  // infeasible (a default DeadlineResult), so the search trajectory, probe
  // counts, and final answer are bit-identical with the filter off.
  const double finish_floor = earliest_finish_floor(dag, competing, now);
  auto probe = [&](double deadline) {
    ++result.probes;
    if (deadline < finish_floor) {
      OBS_COUNT("core.tightest.floor_filtered", 1);
      return DeadlineResult{};
    }
    return schedule_deadline(dag, competing, now, q_hist, deadline, params,
                             ctx);
  };

  // Infeasibility floor: even with all p processors per task the critical
  // path cannot compress below this.
  std::vector<int> all_p(static_cast<std::size_t>(dag.size()),
                         competing.capacity());
  double lo = now + dag::critical_path_length(dag, all_p);

  // Bracket a feasible deadline: start from the BD_CPAR turn-around (a
  // constructive upper bound on what a good schedule needs) and double the
  // span until this algorithm succeeds.
  ResschedParams fwd;
  fwd.cpa = params.cpa;
  double span = std::max(
      schedule_ressched(dag, competing, now, q_hist, fwd).turnaround,
      lo - now);
  double hi = now + span;
  DeadlineResult hi_result = probe(hi);
  while (!hi_result.feasible && result.probes < opts.max_probes) {
    span *= 2.0;
    hi = now + span;
    hi_result = probe(hi);
  }
  if (!hi_result.feasible) {
    // Pathological: report the last (loosest) attempt as infeasible.
    result.deadline = hi;
    result.at_deadline = std::move(hi_result);
    OBS_COUNT("core.tightest.probes", result.probes);
    return result;
  }

  // Bisect; `hi` always stays feasible with its schedule retained.
  while (result.probes < opts.max_probes) {
    double width = hi - std::max(lo, now);
    if (width <= std::max(opts.abs_tol, opts.rel_tol * (hi - now))) break;
    double mid = std::max(lo, now) + width / 2.0;
    DeadlineResult mid_result = probe(mid);
    if (mid_result.feasible) {
      hi = mid;
      hi_result = std::move(mid_result);
    } else {
      lo = mid;
    }
  }
  result.deadline = hi;
  result.at_deadline = std::move(hi_result);
  OBS_COUNT("core.tightest.probes", result.probes);
  return result;
}

}  // namespace resched::core
