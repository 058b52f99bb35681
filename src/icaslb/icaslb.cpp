#include "src/icaslb/icaslb.hpp"

#include <algorithm>
#include <limits>

#include "src/cpa/cpa.hpp"
#include "src/util/error.hpp"

namespace resched::icaslb {

namespace {

/// Backfilling placement: tasks in decreasing bottom-level order each take
/// the earliest calendar hole that fits their allocation — holes left by
/// competing reservations or earlier tasks are reused, which is iCASLB's
/// "backfilling" ingredient.
core::AppSchedule place(const dag::Dag& dag, const std::vector<int>& alloc,
                        const resv::AvailabilityProfile& base, double now) {
  auto bl = dag::bottom_levels(dag, alloc);
  auto order = dag::order_by_decreasing(dag, bl);
  resv::AvailabilityProfile profile = base.view();
  core::AppSchedule sched;
  sched.tasks.resize(static_cast<std::size_t>(dag.size()));
  for (int task : order) {
    auto ti = static_cast<std::size_t>(task);
    double ready = now;
    for (int pred : dag.predecessors(task))
      ready = std::max(ready,
                       sched.tasks[static_cast<std::size_t>(pred)].finish);
    double exec = dag::exec_time(dag.cost(task), alloc[ti]);
    auto start = profile.earliest_fit(alloc[ti], exec, ready);
    RESCHED_ASSERT(start.has_value(), "allocation exceeds platform capacity");
    sched.tasks[ti] = core::TaskReservation{alloc[ti], *start, *start + exec};
    profile.add(sched.tasks[ti].as_reservation());
  }
  return sched;
}

std::vector<int> allocation_caps(const dag::Dag& dag, int q,
                                 const Options& opts) {
  std::vector<int> cap(static_cast<std::size_t>(dag.size()), q);
  if (!opts.fair_share_cap) return cap;
  std::vector<int> level_width(static_cast<std::size_t>(dag.num_levels()), 0);
  for (int lvl : dag.levels()) ++level_width[static_cast<std::size_t>(lvl)];
  for (int v = 0; v < dag.size(); ++v) {
    int w = level_width[static_cast<std::size_t>(
        dag.levels()[static_cast<std::size_t>(v)])];
    cap[static_cast<std::size_t>(v)] = std::max(1, std::min(q, (q + w - 1) / w));
  }
  return cap;
}

Result run(const dag::Dag& dag, const resv::AvailabilityProfile& base,
           double now, const Options& opts) {
  const int q = base.capacity();
  const int n = dag.size();
  auto cap = allocation_caps(dag, q, opts);
  const int max_steps =
      opts.max_steps > 0 ? opts.max_steps : n * std::max(1, q - 1);

  // Warm start from the CPA allocations for the historically available
  // processor count: the refinement loop then only has to adapt the
  // allocation to the actual calendar, which keeps the search tractable on
  // large platforms (a cold start needs O(V q) moves to leave alloc = 1).
  std::vector<int> alloc(static_cast<std::size_t>(n), 1);
  if (opts.warm_start) {
    int q_start = resv::historical_average_available(base, now, 7 * 86400.0);
    alloc = cpa::allocations(dag, q_start);
    for (int v = 0; v < n; ++v) {
      auto vi = static_cast<std::size_t>(v);
      alloc[vi] = std::min(alloc[vi], cap[vi]);
    }
  }
  core::AppSchedule current = place(dag, alloc, base, now);
  double current_mk = current.turnaround(now);

  Result best;
  best.schedule = current;
  best.alloc = alloc;
  best.makespan = current_mk;

  int no_improve = 0;
  int steps = 0;
  while (no_improve <= opts.lookahead && steps < max_steps) {
    // Candidate moves: grow a critical-path task (shortens the path) or
    // shrink a non-critical task (frees processors and area for the
    // others); steps are multiplicative so large platforms converge in
    // O(log q) moves per task. Each candidate is a full re-schedule.
    int chosen = -1;
    int chosen_alloc = 0;
    double chosen_mk = std::numeric_limits<double>::infinity();
    core::AppSchedule chosen_sched;
    auto cp = dag::critical_path_tasks(dag, alloc);
    std::vector<bool> on_cp(static_cast<std::size_t>(n), false);
    for (int t : cp) on_cp[static_cast<std::size_t>(t)] = true;

    auto consider = [&](int task, int new_alloc) {
      auto ti = static_cast<std::size_t>(task);
      int saved = alloc[ti];
      alloc[ti] = new_alloc;
      core::AppSchedule candidate = place(dag, alloc, base, now);
      double mk = candidate.turnaround(now);
      alloc[ti] = saved;
      ++steps;
      if (chosen < 0 || mk < chosen_mk) {
        chosen = task;
        chosen_alloc = new_alloc;
        chosen_mk = mk;
        chosen_sched = std::move(candidate);
      }
    };
    for (int task : cp) {
      auto ti = static_cast<std::size_t>(task);
      if (alloc[ti] < cap[ti])
        consider(task,
                 std::min(cap[ti], alloc[ti] + std::max(1, alloc[ti] / 2)));
      if (steps >= max_steps) break;
    }
    for (int task = 0; task < n && steps < max_steps; ++task) {
      auto ti = static_cast<std::size_t>(task);
      if (!on_cp[ti] && alloc[ti] > 1)
        consider(task, std::max(1, alloc[ti] - std::max(1, alloc[ti] / 3)));
    }
    if (chosen < 0) break;  // no move available

    // Accept the best move even when it worsens the makespan; the
    // look-ahead counter bounds how long such exploration may continue.
    alloc[static_cast<std::size_t>(chosen)] = chosen_alloc;
    current = std::move(chosen_sched);
    current_mk = chosen_mk;
    if (current_mk < best.makespan) {
      best.schedule = current;
      best.alloc = alloc;
      best.makespan = current_mk;
      no_improve = 0;
    } else {
      ++no_improve;
    }
  }

  best.cpu_hours = best.schedule.cpu_hours();
  best.steps = steps;
  return best;
}

}  // namespace

Result schedule_icaslb(const dag::Dag& dag, int q, double t0,
                       const Options& opts) {
  RESCHED_CHECK(q >= 1, "need at least one processor");
  return run(dag, resv::AvailabilityProfile(q), t0, opts);
}

Result schedule_icaslb_resv(const dag::Dag& dag,
                            const resv::AvailabilityProfile& competing,
                            double now, const Options& opts) {
  return run(dag, competing, now, opts);
}

}  // namespace resched::icaslb
