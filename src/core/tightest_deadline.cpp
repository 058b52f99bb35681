#include "src/core/tightest_deadline.hpp"

#include <algorithm>

#include "src/obs/obs.hpp"
#include "src/util/error.hpp"

namespace resched::core {

void fastest_task_times(const dag::Dag& dag, int capacity,
                        std::vector<double>& fastest) {
  fastest.clear();
  fastest.reserve(static_cast<std::size_t>(dag.size()));
  // exec_time is weakly decreasing in np — dividing and adding positive
  // terms are monotone under IEEE rounding — so the minimum over np in
  // [1, capacity] is exactly exec_time at full capacity; no scan over np
  // is needed.
  for (int task = 0; task < dag.size(); ++task)
    fastest.push_back(dag::exec_time(dag.cost(task), capacity));
}

double evaluate_finish_floor(std::span<const double> fastest,
                             const resv::AvailabilityProfile& calendar,
                             double now) {
  double floor = now;
  for (const double duration : fastest) {
    auto fit = calendar.earliest_fit(1, duration, now);
    RESCHED_ASSERT(fit.has_value(), "1-processor fit must always exist");
    floor = std::max(floor, *fit + duration);
  }
  return floor;
}

TightestDeadlineResult tightest_deadline(
    const dag::Dag& dag, const resv::AvailabilityProfile& competing,
    double now, int q_hist, const DeadlineParams& params,
    const TightestDeadlineOptions& opts) {
  auto ctx = make_deadline_context(dag, competing.capacity(), q_hist, params);
  std::vector<double> fastest;
  fastest_task_times(dag, competing.capacity(), fastest);
  return tightest_deadline(dag, competing, now, q_hist, params, ctx,
                           evaluate_finish_floor(fastest, competing, now),
                           opts);
}

TightestDeadlineResult tightest_deadline(
    const dag::Dag& dag, const resv::AvailabilityProfile& competing,
    double now, int q_hist, const DeadlineParams& params,
    const DeadlineContext& ctx, double finish_floor,
    const TightestDeadlineOptions& opts) {
  OBS_PHASE("core.tightest_deadline");
  TightestDeadlineResult result;
  // Quick-infeasible filter: probes below the calendar-aware finish floor
  // are provably infeasible, so the backward pass is skipped. They still
  // count (++probes) and return exactly what schedule_deadline returns when
  // infeasible (a default DeadlineResult), so the search trajectory, probe
  // counts, and final answer are bit-identical with the filter off.
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
