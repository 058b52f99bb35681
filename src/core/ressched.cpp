#include "src/core/ressched.hpp"

#include <algorithm>
#include <optional>

#include "src/obs/obs.hpp"
#include "src/util/error.hpp"

namespace resched::core {

const char* to_string(BlMethod m) {
  switch (m) {
    case BlMethod::kOne: return "BL_1";
    case BlMethod::kAll: return "BL_ALL";
    case BlMethod::kCpa: return "BL_CPA";
    case BlMethod::kCpar: return "BL_CPAR";
  }
  return "?";
}

const char* to_string(BdMethod m) {
  switch (m) {
    case BdMethod::kAll: return "BD_ALL";
    case BdMethod::kHalf: return "BD_HALF";
    case BdMethod::kCpa: return "BD_CPA";
    case BdMethod::kCpar: return "BD_CPAR";
  }
  return "?";
}

std::vector<int> bl_allocations(const dag::Dag& dag, int p, int q_hist,
                                BlMethod method, const cpa::Options& cpa) {
  auto n = static_cast<std::size_t>(dag.size());
  switch (method) {
    case BlMethod::kOne:
      return std::vector<int>(n, 1);
    case BlMethod::kAll:
      return std::vector<int>(n, p);
    case BlMethod::kCpa:
      return cpa::allocations(dag, p, cpa);
    case BlMethod::kCpar:
      return cpa::allocations(dag, q_hist, cpa);
  }
  RESCHED_ASSERT(false, "unreachable BlMethod");
}

std::vector<int> bd_bounds(const dag::Dag& dag, int p, int q_hist,
                           BdMethod method, const cpa::Options& cpa) {
  auto n = static_cast<std::size_t>(dag.size());
  switch (method) {
    case BdMethod::kAll:
      return std::vector<int>(n, p);
    case BdMethod::kHalf:
      return std::vector<int>(n, std::max(1, p / 2));
    case BdMethod::kCpa:
      return cpa::allocations(dag, p, cpa);
    case BdMethod::kCpar:
      return cpa::allocations(dag, q_hist, cpa);
  }
  RESCHED_ASSERT(false, "unreachable BdMethod");
}

TaskReservation earliest_completion(const resv::AvailabilityProfile& profile,
                                    const dag::TaskCost& cost, int bound,
                                    double ready, PlacementWork& work) {
  // Downward processor-count sweep. Ties prefer the smaller allocation
  // (same completion, fewer CPU-hours), and exec(np) never shrinks as np
  // does, so two bounds cut the sweep without changing its answer:
  //  * ready + exec(np) lower-bounds any completion at np or below; once it
  //    cannot beat the incumbent the sweep stops;
  //  * every count in (free->peak_before, np] first finds its processors
  //    at free->at, so none completes before at + exec(np); when that is
  //    strictly later than the incumbent the whole range is skipped
  //    unqueried. Equality still queries: a tie goes to the smaller count.
  int best_np = -1;
  double best_start = 0.0, best_completion = 0.0;
  std::optional<resv::FirstFree> free;  // the last lookup, reused over its range
  for (int np = bound; np >= 1; --np) {
    const double exec = dag::exec_time(cost, np);
    if (best_np > 0) {
      if (ready + exec > best_completion) break;
      if (!free || np <= free->peak_before) {
        free = profile.first_free(np, ready);
        ++work.lookups;
      }
      if (free->at + exec > best_completion) {
        np = free->peak_before + 1;  // the loop's --np lands on peak_before
        continue;
      }
    }
    ++work.fits;
    const std::optional<double> start = profile.earliest_fit(np, exec, ready);
    if (!start) continue;  // np exceeds momentary capacity
    const double completion = *start + exec;
    if (best_np < 0 || completion < best_completion ||
        (completion == best_completion && np < best_np)) {
      best_np = np;
      best_start = *start;
      best_completion = completion;
    }
  }
  RESCHED_ASSERT(best_np >= 1, "earliest fit must exist for some np");
  return {best_np, best_start, best_completion};
}

ResschedResult schedule_ressched(const dag::Dag& dag,
                                 const resv::AvailabilityProfile& competing,
                                 double now, int q_hist,
                                 const ResschedParams& params) {
  const int p = competing.capacity();
  RESCHED_CHECK(q_hist >= 1 && q_hist <= p, "q_hist must be in [1, p]");
  OBS_PHASE("core.ressched");

  // Phase 1: bottom levels under the BL_* allocation assumption.
  OBS_SPAN_NAMED(bl_span, "core.ressched.bottom_levels");
  auto bl_alloc = bl_allocations(dag, p, q_hist, params.bl, params.cpa);
  std::vector<double> bl;
  dag::bottom_levels_into(dag, bl_alloc, bl);
  auto order = dag::order_by_decreasing(dag, bl);
  bl_span.close();

  // Phase 2: earliest-completion fits under the BD_* bounds. When BL and
  // BD request the same CPA variant (the paper's BL_CPAR/BD_CPAR pairing,
  // Table 4's best performer), the allocation is the same deterministic
  // computation — reuse phase 1's instead of running CPA twice per job.
  OBS_SPAN_NAMED(sweep_span, "core.ressched.alloc_sweep");
  const bool share_cpa =
      (params.bl == BlMethod::kCpa && params.bd == BdMethod::kCpa) ||
      (params.bl == BlMethod::kCpar && params.bd == BdMethod::kCpar);
  auto bound =
      share_cpa ? bl_alloc : bd_bounds(dag, p, q_hist, params.bd, params.cpa);
  PlacementWork work;

  // Tasks commit as we go, on a copy-on-write view of the calendar.
  resv::AvailabilityProfile profile = competing.view();
  ResschedResult result;
  result.schedule.tasks.resize(static_cast<std::size_t>(dag.size()));

  for (int task : order) {
    auto ti = static_cast<std::size_t>(task);
    double ready = now;
    for (int pred : dag.predecessors(task))
      ready = std::max(
          ready, result.schedule.tasks[static_cast<std::size_t>(pred)].finish);

    const TaskReservation r =
        earliest_completion(profile, dag.cost(task), bound[ti], ready, work);
    result.schedule.tasks[ti] = r;
    profile.add(r.as_reservation());
  }
  sweep_span.close();
  OBS_COUNT("core.ressched.tasks_placed", dag.size());
  OBS_COUNT("core.ressched.sweep_queries", work.fits);
  OBS_COUNT("core.ressched.sweep_lookups", work.lookups);

  result.turnaround = result.schedule.turnaround(now);
  result.cpu_hours = result.schedule.cpu_hours();
  return result;
}

}  // namespace resched::core
