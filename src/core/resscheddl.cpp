#include "src/core/resscheddl.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/obs/obs.hpp"
#include "src/util/error.hpp"

namespace resched::core {

namespace {

struct PairChoice {
  int np = 0;
  double start = 0.0;
};

/// Latest-start choice (aggressive step): maximize the start time over
/// np in [1, bound], ties to fewer processors. Scans np downward: the start
/// of any fit at np is capped by dl − exec(np), which only shrinks as np
/// does, so once that cap falls below the incumbent the rest is dominated
/// and the scan stops without querying the calendar for it.
std::optional<PairChoice> latest_pair(const resv::AvailabilityProfile& profile,
                                      const dag::TaskCost& cost, int bound,
                                      double dl, double now) {
  std::optional<PairChoice> best;
  for (int np = bound; np >= 1; --np) {
    const double exec = dag::exec_time(cost, np);
    if (best && dl - exec < best->start) break;
    const std::optional<double> start = profile.latest_fit(np, exec, dl, now);
    if (!start) continue;
    if (!best || *start > best->start ||
        (*start == best->start && np < best->np))
      best = PairChoice{np, *start};
  }
  return best;
}

/// Resource-conservative choice: the *fewest* processors whose latest
/// feasible start is at or after `threshold` (the stretched CPA guideline
/// position), placed at that latest start — few processors to save
/// CPU-hours, a late start to leave room for the unscheduled ancestors.
/// Counts whose cap dl − exec(np) cannot reach the threshold are skipped
/// without a calendar scan, and the scan stops at the first count that
/// qualifies.
std::optional<PairChoice> conservative_pair(
    const resv::AvailabilityProfile& profile, const dag::TaskCost& cost,
    int max_np, double dl, double now, double threshold) {
  if (threshold >= dl) return std::nullopt;
  for (int np = 1; np <= max_np; ++np) {
    const double exec = dag::exec_time(cost, np);
    if (dl - exec < threshold) continue;  // even an empty calendar can't
    const std::optional<double> start = profile.latest_fit(np, exec, dl, now);
    if (start && *start >= threshold) return PairChoice{np, *start};
  }
  return std::nullopt;
}

/// One backward scheduling pass. `guideline_rel` is null for aggressive
/// modes; `aggr_bound` is the latest-start allocation bound (the fallback
/// bound for conservative modes).
std::optional<AppSchedule> backward_pass(
    const dag::Dag& dag, const resv::AvailabilityProfile& competing,
    double now, double deadline, const std::vector<int>& order,
    const std::vector<int>& aggr_bound,
    const std::vector<double>* guideline_rel, double cpa_makespan,
    double lambda) {
  OBS_SPAN("core.resscheddl.backward_pass");
  OBS_COUNT("core.resscheddl.backward_passes", 1);
  const int p = competing.capacity();
  // Stretch the CPA guideline to the deadline budget: thresholds keep the
  // CPA shape under a tight deadline and spread out under a loose one.
  const double stretch =
      cpa_makespan > 0.0 ? std::max(1.0, (deadline - now) / cpa_makespan)
                         : 1.0;
  resv::AvailabilityProfile profile = competing.view();
  AppSchedule sched;
  sched.tasks.resize(static_cast<std::size_t>(dag.size()));
  std::vector<bool> placed(static_cast<std::size_t>(dag.size()), false);

  for (int task : order) {
    auto ti = static_cast<std::size_t>(task);
    double dl = deadline;
    for (int succ : dag.successors(task)) {
      RESCHED_ASSERT(placed[static_cast<std::size_t>(succ)],
                     "backward order must place successors first");
      dl = std::min(dl, sched.tasks[static_cast<std::size_t>(succ)].start);
    }

    std::optional<PairChoice> choice;
    if (guideline_rel != nullptr) {
      double s_i = now + stretch * (*guideline_rel)[ti];
      double threshold = s_i + lambda * (dl - s_i);
      choice = conservative_pair(profile, dag.cost(task), p, dl, now,
                                 threshold);
    }
    if (!choice)  // aggressive mode, or conservative found no pair
      choice = latest_pair(profile, dag.cost(task), aggr_bound[ti], dl, now);
    if (!choice) return std::nullopt;  // deadline cannot be met

    // Floating-point guard: a latest-fit placement abuts its deadline, and
    // start + exec can overshoot dl (== the successor's start) by one ulp,
    // which would overlap the successor's reservation.
    double finish =
        std::min(choice->start + dag::exec_time(dag.cost(task), choice->np),
                 dl);
    TaskReservation r{choice->np, choice->start, finish};
    sched.tasks[ti] = r;
    placed[ti] = true;
    profile.add(r.as_reservation());
  }
  return sched;
}

}  // namespace

const char* to_string(DlAlgo algo) {
  switch (algo) {
    case DlAlgo::kBdAll: return "DL_BD_ALL";
    case DlAlgo::kBdCpa: return "DL_BD_CPA";
    case DlAlgo::kBdCpar: return "DL_BD_CPAR";
    case DlAlgo::kRcCpa: return "DL_RC_CPA";
    case DlAlgo::kRcCpar: return "DL_RC_CPAR";
    case DlAlgo::kRcCparLambda: return "DL_RC_CPAR-lambda";
    case DlAlgo::kRcbdCparLambda: return "DL_RCBD_CPAR-lambda";
  }
  return "?";
}

ContextNeeds context_needs(DlAlgo algo) {
  switch (algo) {
    case DlAlgo::kBdAll:
    case DlAlgo::kBdCpar:
      return {false, GuidelineSet::kNone};
    case DlAlgo::kBdCpa:
      return {true, GuidelineSet::kNone};
    case DlAlgo::kRcCpa:
      return {true, GuidelineSet::kP};
    case DlAlgo::kRcCpar:
    case DlAlgo::kRcCparLambda:
      return {true, GuidelineSet::kQ};
    case DlAlgo::kRcbdCparLambda:
      return {false, GuidelineSet::kQ};
  }
  return {};
}

DeadlineContext make_deadline_context(const dag::Dag& dag, int p, int q_hist,
                                      const DeadlineParams& params) {
  OBS_SPAN("core.resscheddl.context");
  OBS_COUNT("core.resscheddl.contexts", 1);
  const ContextNeeds needs = context_needs(params.algo);
  DeadlineContext ctx;
  ctx.cpa_alloc_q = cpa::allocations(dag, q_hist, params.cpa);
  if (needs.alloc_p) ctx.cpa_alloc_p = cpa::allocations(dag, p, params.cpa);

  // BL_CPAR bottom levels (§5.2), backward order: successors first. The
  // forward order is the CPA(q_hist) list-scheduling priority.
  std::vector<double> bl;
  dag::bottom_levels_into(dag, ctx.cpa_alloc_q, bl);
  const std::vector<int> cpa_order_q = dag::order_by_decreasing(dag, bl);
  ctx.order.assign(cpa_order_q.rbegin(), cpa_order_q.rend());

  // The guidelines are independent of deadline, λ, and the calendar, so
  // deadline searches reuse the context freely. Guideline k is the CPA
  // schedule of the tasks still unscheduled at backward position k.
  if (needs.guidelines == GuidelineSet::kP) {
    dag::bottom_levels_into(dag, ctx.cpa_alloc_p, bl);
    const std::vector<int> cpa_order_p = dag::order_by_decreasing(dag, bl);
    cpa::GuidelineSeries series = cpa::guideline_starts(
        dag, ctx.order, ctx.cpa_alloc_p, cpa_order_p, p, params.cpa);
    ctx.guideline_rel_p = std::move(series.start);
    ctx.cpa_makespan_p = series.makespan;
  }
  if (needs.guidelines == GuidelineSet::kQ) {
    cpa::GuidelineSeries series = cpa::guideline_starts(
        dag, ctx.order, ctx.cpa_alloc_q, cpa_order_q, q_hist, params.cpa);
    ctx.guideline_rel_q = std::move(series.start);
    ctx.cpa_makespan_q = series.makespan;
  }
  return ctx;
}

DeadlineResult schedule_deadline(const dag::Dag& dag,
                                 const resv::AvailabilityProfile& competing,
                                 double now, int q_hist, double deadline,
                                 const DeadlineParams& params) {
  auto ctx = make_deadline_context(dag, competing.capacity(), q_hist, params);
  return schedule_deadline(dag, competing, now, q_hist, deadline, params, ctx);
}

DeadlineResult schedule_deadline(const dag::Dag& dag,
                                 const resv::AvailabilityProfile& competing,
                                 double now, int q_hist, double deadline,
                                 const DeadlineParams& params,
                                 const DeadlineContext& ctx) {
  RESCHED_CHECK(q_hist >= 1 && q_hist <= competing.capacity(),
                "q_hist must be in [1, p]");
  OBS_PHASE("core.resscheddl");
  auto n = static_cast<std::size_t>(dag.size());
  const ContextNeeds needs = context_needs(params.algo);
  RESCHED_CHECK(ctx.order.size() == n && ctx.cpa_alloc_q.size() == n &&
                    (!needs.alloc_p || ctx.cpa_alloc_p.size() == n) &&
                    (needs.guidelines != GuidelineSet::kP ||
                     ctx.guideline_rel_p.size() == n) &&
                    (needs.guidelines != GuidelineSet::kQ ||
                     ctx.guideline_rel_q.size() == n),
                "context not built for this DAG and algorithm");
  const std::vector<int> all_p(n, competing.capacity());

  DeadlineResult result;
  auto finish = [&](std::optional<AppSchedule> sched, double lambda) {
    if (!sched) return false;
    result.feasible = true;
    result.schedule = std::move(*sched);
    result.cpu_hours = result.schedule.cpu_hours();
    result.lambda_used = lambda;
    return true;
  };

  switch (params.algo) {
    case DlAlgo::kBdAll:
      finish(backward_pass(dag, competing, now, deadline, ctx.order, all_p,
                           nullptr, 0.0, 0.0),
             0.0);
      break;
    case DlAlgo::kBdCpa:
      finish(backward_pass(dag, competing, now, deadline, ctx.order,
                           ctx.cpa_alloc_p, nullptr, 0.0, 0.0),
             0.0);
      break;
    case DlAlgo::kBdCpar:
      finish(backward_pass(dag, competing, now, deadline, ctx.order,
                           ctx.cpa_alloc_q, nullptr, 0.0, 0.0),
             0.0);
      break;
    case DlAlgo::kRcCpa:
      // Guideline with q = p; fallback bound CPA(p) so λ→1 is DL_BD_CPA.
      finish(backward_pass(dag, competing, now, deadline, ctx.order,
                           ctx.cpa_alloc_p, &ctx.guideline_rel_p,
                           ctx.cpa_makespan_p, params.lambda),
             params.lambda);
      break;
    case DlAlgo::kRcCpar:
      finish(backward_pass(dag, competing, now, deadline, ctx.order,
                           ctx.cpa_alloc_p, &ctx.guideline_rel_q,
                           ctx.cpa_makespan_q, params.lambda),
             params.lambda);
      break;
    case DlAlgo::kRcCparLambda:
    case DlAlgo::kRcbdCparLambda: {
      RESCHED_CHECK(params.lambda_step > 0.0, "lambda_step must be positive");
      const std::vector<int>& fallback =
          params.algo == DlAlgo::kRcCparLambda ? ctx.cpa_alloc_p
                                               : ctx.cpa_alloc_q;
      // Find the smallest λ on the 0, step, ..., 1 ladder that meets the
      // deadline: as resource conservative as possible while still meeting
      // it (§5.4).
      auto try_lambda = [&](double lambda) {
        return finish(backward_pass(dag, competing, now, deadline, ctx.order,
                                    fallback, &ctx.guideline_rel_q,
                                    ctx.cpa_makespan_q, lambda),
                      lambda);
      };
      const int rungs =
          static_cast<int>(std::ceil(1.0 / params.lambda_step - 1e-12));
      auto lambda_at = [&](int rung) {
        return std::min(1.0, rung * params.lambda_step);
      };
      if (params.lambda_search == LambdaSearch::kLinear) {
        for (int rung = 0; rung <= rungs; ++rung)
          if (try_lambda(lambda_at(rung))) break;
      } else {
        // Bisect assuming monotone feasibility: infeasible below some rung,
        // feasible at and above it (λ = 1 is the aggressive algorithm).
        if (!try_lambda(0.0)) {
          int lo = 0, hi = rungs;  // lo infeasible; hi unverified
          if (try_lambda(lambda_at(hi))) {
            while (hi - lo > 1) {
              int mid = lo + (hi - lo) / 2;
              if (try_lambda(lambda_at(mid)))
                hi = mid;
              else
                lo = mid;
            }
            // `result` currently holds the last *probed* outcome, which
            // may be the failing `lo`; re-run the known-feasible rung.
            if (!result.feasible || result.lambda_used != lambda_at(hi))
              try_lambda(lambda_at(hi));
          }
        }
      }
      break;
    }
  }
  if (result.feasible)
    OBS_COUNT("core.resscheddl.feasible", 1);
  else
    OBS_COUNT("core.resscheddl.infeasible", 1);
  return result;
}

}  // namespace resched::core
