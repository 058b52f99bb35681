#include "src/core/dynamic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/error.hpp"

namespace resched::core {

DynamicResult schedule_ressched_dynamic(
    const dag::Dag& dag, const resv::AvailabilityProfile& competing,
    double now, int q_hist, const ResschedParams& params,
    double placement_delay, const ArrivalModel& arrivals, util::Rng& rng) {
  RESCHED_CHECK(placement_delay >= 0.0, "placement delay must be >= 0");
  RESCHED_CHECK(arrivals.rate_per_hour >= 0.0, "arrival rate must be >= 0");
  const int p = competing.capacity();
  RESCHED_CHECK(q_hist >= 1 && q_hist <= p, "q_hist must be in [1, p]");

  // Phase 1 exactly as the static algorithm (computed before any arrival —
  // bottom levels do not depend on the calendar).
  auto bl_alloc = bl_allocations(dag, p, q_hist, params.bl, params.cpa);
  std::vector<double> bl;
  dag::bottom_levels_into(dag, bl_alloc, bl);
  auto order = dag::order_by_decreasing(dag, bl);
  auto bound = bd_bounds(dag, p, q_hist, params.bd, params.cpa);

  resv::AvailabilityProfile profile = competing.view();
  DynamicResult result;
  result.schedule.tasks.resize(static_cast<std::size_t>(dag.size()));

  // Wall-clock of the scheduling session and the next competing arrival.
  double clock = now;
  double next_arrival =
      arrivals.rate_per_hour > 0.0
          ? now + rng.exponential(3600.0 / arrivals.rate_per_hour)
          : std::numeric_limits<double>::infinity();

  auto commit_arrivals_until = [&](double t) {
    while (next_arrival <= t) {
      // A competing user books the earliest slot that fits their job within
      // their look-ahead; if nothing fits they walk away.
      int procs = std::clamp(
          static_cast<int>(std::lround(
              rng.exponential(arrivals.mean_procs_fraction *
                              static_cast<double>(p)))),
          1, p);
      double dur =
          std::max(60.0, rng.exponential(arrivals.mean_duration_hours * 3600.0));
      auto start = profile.earliest_fit(procs, dur, next_arrival);
      if (start &&
          *start <= next_arrival + arrivals.max_lead_hours * 3600.0) {
        profile.add({*start, *start + dur, procs});
        ++result.arrivals_seen;
      }
      next_arrival += rng.exponential(3600.0 / arrivals.rate_per_hour);
    }
  };

  PlacementWork work;  // uncounted: core.ressched.sweep_* are schedule_ressched's
  for (int task : order) {
    auto ti = static_cast<std::size_t>(task);
    // Time passes while we prepare this request; competing bookings land.
    clock += placement_delay;
    commit_arrivals_until(clock);

    double ready = clock;  // a reservation cannot start in the past
    for (int pred : dag.predecessors(task))
      ready = std::max(
          ready, result.schedule.tasks[static_cast<std::size_t>(pred)].finish);

    const TaskReservation r =
        earliest_completion(profile, dag.cost(task), bound[ti], ready, work);
    result.schedule.tasks[ti] = r;
    profile.add(r.as_reservation());
  }

  result.turnaround = result.schedule.turnaround(now);
  result.cpu_hours = result.schedule.cpu_hours();
  return result;
}

}  // namespace resched::core
