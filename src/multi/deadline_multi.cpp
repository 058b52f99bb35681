#include "src/multi/deadline_multi.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "src/util/error.hpp"

namespace resched::multi {

namespace {

struct TripleChoice {
  int cluster = -1;
  int np = 0;
  double start = 0.0;
  double exec = 0.0;
  double work = 0.0;  ///< np * exec * speed
};

/// Latest-start triple across clusters, np bounded per cluster.
std::optional<TripleChoice> latest_triple(
    const MultiPlatform& platform,
    const std::vector<resv::AvailabilityProfile>& calendars,
    const dag::TaskCost& cost, const std::vector<int>& bound, double dl,
    double now) {
  std::optional<TripleChoice> best;
  for (int c = 0; c < platform.num_clusters(); ++c) {
    const Cluster& cluster = platform.cluster(c);
    for (int np = bound[static_cast<std::size_t>(c)]; np >= 1; --np) {
      double exec = cluster.exec_time(cost, np);
      if (best && dl - exec < best->start) break;  // dominated downward
      auto start = calendars[static_cast<std::size_t>(c)].latest_fit(
          np, exec, dl, now);
      if (!start) continue;
      double work = static_cast<double>(np) * exec * cluster.speed;
      if (!best || *start > best->start ||
          (*start == best->start && work < best->work))
        best = TripleChoice{c, np, *start, exec, work};
    }
  }
  return best;
}

/// Least-work triple whose latest feasible start clears `threshold`.
std::optional<TripleChoice> conservative_triple(
    const MultiPlatform& platform,
    const std::vector<resv::AvailabilityProfile>& calendars,
    const dag::TaskCost& cost, double dl, double now, double threshold) {
  if (threshold >= dl) return std::nullopt;
  std::optional<TripleChoice> best;
  for (int c = 0; c < platform.num_clusters(); ++c) {
    const Cluster& cluster = platform.cluster(c);
    for (int np = 1; np <= cluster.procs(); ++np) {
      double exec = cluster.exec_time(cost, np);
      if (dl - exec < threshold) continue;  // cannot clear even when free
      double work = static_cast<double>(np) * exec * cluster.speed;
      if (best && work >= best->work) break;  // work grows with np
      auto start = calendars[static_cast<std::size_t>(c)].latest_fit(
          np, exec, dl, now);
      if (start && *start >= threshold) {
        best = TripleChoice{c, np, *start, exec, work};
        break;  // smallest qualifying np on this cluster found
      }
    }
  }
  return best;
}

std::optional<MultiDeadlineResult> backward_pass(
    const dag::Dag& dag, const MultiPlatform& platform, double now,
    double deadline, const std::vector<int>& order,
    const std::vector<std::vector<int>>& bound,
    const std::vector<double>* guideline_rel, double cpa_makespan,
    double lambda) {
  const double stretch =
      cpa_makespan > 0.0 ? std::max(1.0, (deadline - now) / cpa_makespan)
                         : 1.0;
  std::vector<resv::AvailabilityProfile> calendars;
  for (int c = 0; c < platform.num_clusters(); ++c)
    calendars.push_back(platform.cluster(c).calendar.view());

  MultiDeadlineResult result;
  result.schedule.tasks.resize(static_cast<std::size_t>(dag.size()));
  result.cluster_of.assign(static_cast<std::size_t>(dag.size()), -1);

  for (int task : order) {
    auto ti = static_cast<std::size_t>(task);
    double dl = deadline;
    for (int succ : dag.successors(task))
      dl = std::min(dl,
                    result.schedule.tasks[static_cast<std::size_t>(succ)].start);

    std::optional<TripleChoice> choice;
    if (guideline_rel != nullptr) {
      double s_i = now + stretch * (*guideline_rel)[ti];
      double threshold = s_i + lambda * (dl - s_i);
      choice = conservative_triple(platform, calendars, dag.cost(task), dl,
                                   now, threshold);
    }
    if (!choice)
      choice = latest_triple(platform, calendars, dag.cost(task),
                             bound[ti], dl, now);
    if (!choice) return std::nullopt;

    double finish = std::min(choice->start + choice->exec, dl);
    core::TaskReservation r{choice->np, choice->start, finish};
    result.schedule.tasks[ti] = r;
    result.cluster_of[ti] = choice->cluster;
    calendars[static_cast<std::size_t>(choice->cluster)].add(
        r.as_reservation());
    result.cpu_hours += choice->work / 3600.0;
  }
  result.feasible = true;
  return result;
}

}  // namespace

const char* to_string(MultiDlAlgo algo) {
  switch (algo) {
    case MultiDlAlgo::kAggressive: return "MDL_BD_CPA";
    case MultiDlAlgo::kConservativeLambda: return "MDL_RC_CPAR-lambda";
  }
  return "?";
}

MultiDeadlineResult schedule_deadline_multi(const dag::Dag& dag,
                                            const MultiPlatform& platform,
                                            double now, double deadline,
                                            const MultiDeadlineParams& params) {
  auto q_hist = platform.historical_availability(now, params.history_window);
  int q_ref = *std::max_element(q_hist.begin(), q_hist.end());
  double speed_ref = 0.0;
  for (int c = 0; c < platform.num_clusters(); ++c)
    speed_ref = std::max(speed_ref, platform.cluster(c).speed);

  // Reference CPA allocations drive bottom levels, per-cluster bounds, and
  // the guideline schedule (cf. DeadlineContext in the single-cluster
  // implementation).
  auto alloc = cpa::allocations(dag, q_ref, params.cpa);
  const std::vector<int> cpa_order =
      dag::order_by_decreasing(dag, dag::bottom_levels(dag, alloc));
  const std::vector<int> order(cpa_order.rbegin(), cpa_order.rend());

  std::vector<std::vector<int>> bound(static_cast<std::size_t>(dag.size()));
  for (int v = 0; v < dag.size(); ++v) {
    auto& row = bound[static_cast<std::size_t>(v)];
    for (int c = 0; c < platform.num_clusters(); ++c)
      row.push_back(std::min(alloc[static_cast<std::size_t>(v)],
                             platform.cluster(c).procs()));
  }

  if (params.algo == MultiDlAlgo::kAggressive) {
    auto pass = backward_pass(dag, platform, now, deadline, order, bound,
                              nullptr, 0.0, 0.0);
    return pass ? std::move(*pass) : MultiDeadlineResult{};
  }

  // Guideline schedule on the reference cluster, time-scaled by its speed.
  cpa::GuidelineSeries series =
      cpa::guideline_starts(dag, order, alloc, cpa_order, q_ref, params.cpa);
  std::vector<double> guideline = std::move(series.start);
  for (double& start : guideline) start /= speed_ref;
  const double guideline_makespan = series.makespan / speed_ref;

  RESCHED_CHECK(params.lambda_step > 0.0, "lambda_step must be positive");
  for (double lambda = 0.0; lambda <= 1.0 + 1e-12;
       lambda += params.lambda_step) {
    auto pass = backward_pass(dag, platform, now, deadline, order, bound,
                              &guideline, guideline_makespan,
                              std::min(lambda, 1.0));
    if (pass) {
      pass->lambda_used = std::min(lambda, 1.0);
      return std::move(*pass);
    }
  }
  return MultiDeadlineResult{};
}

}  // namespace resched::multi
