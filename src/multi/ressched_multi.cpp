#include "src/multi/ressched_multi.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/util/error.hpp"

namespace resched::multi {

int MultiPlatform::total_procs() const {
  int total = 0;
  for (const Cluster& c : clusters_) total += c.procs();
  return total;
}

int MultiPlatform::max_cluster_procs() const {
  int best = 0;
  for (const Cluster& c : clusters_) best = std::max(best, c.procs());
  return best;
}

std::vector<int> MultiPlatform::historical_availability(double now,
                                                        double window) const {
  std::vector<int> out;
  out.reserve(clusters_.size());
  for (const Cluster& c : clusters_)
    out.push_back(resv::historical_average_available(c.calendar, now, window));
  return out;
}

MultiResult schedule_ressched_multi(const dag::Dag& dag,
                                    const MultiPlatform& platform, double now,
                                    const MultiParams& params) {
  const int num_clusters = platform.num_clusters();
  auto q_hist = platform.historical_availability(now, params.history_window);

  // Reference cluster for the BL_CPAR generalization: the largest
  // historical availability at the fastest speed.
  int q_ref = *std::max_element(q_hist.begin(), q_hist.end());
  double speed_ref = 0.0;
  for (int c = 0; c < num_clusters; ++c)
    speed_ref = std::max(speed_ref, platform.cluster(c).speed);

  auto alloc = cpa::allocations(dag, q_ref, params.cpa);
  auto bl = dag::bottom_levels(dag, alloc);
  for (double& v : bl) v /= speed_ref;  // uniform speed scaling; order-safe
  auto order = dag::order_by_decreasing(dag, bl);

  // Per-cluster working calendars (task reservations commit as we go), as
  // copy-on-write views of the platform's.
  std::vector<resv::AvailabilityProfile> calendars;
  calendars.reserve(static_cast<std::size_t>(num_clusters));
  for (int c = 0; c < num_clusters; ++c)
    calendars.push_back(platform.cluster(c).calendar.view());

  MultiResult result;
  result.schedule.tasks.resize(static_cast<std::size_t>(dag.size()));
  result.cluster_of.assign(static_cast<std::size_t>(dag.size()), -1);

  for (int task : order) {
    auto ti = static_cast<std::size_t>(task);
    double ready = now;
    for (int pred : dag.predecessors(task))
      ready = std::max(
          ready, result.schedule.tasks[static_cast<std::size_t>(pred)].finish);

    int best_cluster = -1, best_np = 0;
    double best_start = 0.0, best_completion = 0.0, best_work = 0.0;
    for (int c = 0; c < num_clusters; ++c) {
      const Cluster& cluster = platform.cluster(c);
      int bound = std::min(alloc[ti], cluster.procs());
      for (int np = bound; np >= 1; --np) {
        double exec = cluster.exec_time(dag.cost(task), np);
        // Same dominated-count pruning as the single-cluster algorithm.
        if (best_cluster >= 0 && ready + exec > best_completion) break;
        auto start = calendars[static_cast<std::size_t>(c)].earliest_fit(
            np, exec, ready);
        if (!start) continue;
        double completion = *start + exec;
        double work = static_cast<double>(np) * exec * cluster.speed;
        if (best_cluster < 0 || completion < best_completion ||
            (completion == best_completion && work < best_work)) {
          best_cluster = c;
          best_np = np;
          best_start = *start;
          best_completion = completion;
          best_work = work;
        }
      }
    }
    RESCHED_ASSERT(best_cluster >= 0, "some cluster must fit every task");

    core::TaskReservation r{best_np, best_start, best_completion};
    result.schedule.tasks[ti] = r;
    result.cluster_of[ti] = best_cluster;
    calendars[static_cast<std::size_t>(best_cluster)].add(r.as_reservation());
    result.cpu_hours += best_work / 3600.0;
  }

  result.turnaround = result.schedule.turnaround(now);
  return result;
}

std::optional<std::string> validate_multi_schedule(
    const dag::Dag& dag, const MultiPlatform& platform,
    const MultiResult& result, double now) {
  std::ostringstream err;
  if (static_cast<int>(result.schedule.tasks.size()) != dag.size() ||
      static_cast<int>(result.cluster_of.size()) != dag.size()) {
    return "schedule does not cover every task";
  }
  constexpr double kTol = 1e-6;

  for (int v = 0; v < dag.size(); ++v) {
    auto vi = static_cast<std::size_t>(v);
    const core::TaskReservation& r = result.schedule.tasks[vi];
    int c = result.cluster_of[vi];
    if (c < 0 || c >= platform.num_clusters()) {
      err << "task " << v << " assigned to unknown cluster " << c;
      return err.str();
    }
    const Cluster& cluster = platform.cluster(c);
    if (r.procs < 1 || r.procs > cluster.procs()) {
      err << "task " << v << " uses " << r.procs << " procs on cluster "
          << cluster.name;
      return err.str();
    }
    if (r.start < now - kTol) {
      err << "task " << v << " starts before the scheduling instant";
      return err.str();
    }
    double expected = cluster.exec_time(dag.cost(v), r.procs);
    if (std::abs((r.finish - r.start) - expected) >
        kTol * std::max(1.0, expected)) {
      err << "task " << v << " duration does not match cluster "
          << cluster.name << " speed";
      return err.str();
    }
    for (int pred : dag.predecessors(v)) {
      if (r.start <
          result.schedule.tasks[static_cast<std::size_t>(pred)].finish -
              kTol) {
        err << "task " << v << " starts before predecessor " << pred
            << " finishes";
        return err.str();
      }
    }
  }

  // Per-cluster capacity replay.
  for (int c = 0; c < platform.num_clusters(); ++c) {
    resv::AvailabilityProfile replay = platform.cluster(c).calendar;
    std::vector<int> members;
    for (int v = 0; v < dag.size(); ++v)
      if (result.cluster_of[static_cast<std::size_t>(v)] == c)
        members.push_back(v);
    std::sort(members.begin(), members.end(), [&](int a, int b) {
      return result.schedule.tasks[static_cast<std::size_t>(a)].start <
             result.schedule.tasks[static_cast<std::size_t>(b)].start;
    });
    for (int v : members) {
      const core::TaskReservation& r =
          result.schedule.tasks[static_cast<std::size_t>(v)];
      if (replay.min_available(r.start, r.finish) < r.procs) {
        err << "task " << v << " over-subscribes cluster "
            << platform.cluster(c).name;
        return err.str();
      }
      replay.add(r.as_reservation());
    }
  }
  return std::nullopt;
}

}  // namespace resched::multi
