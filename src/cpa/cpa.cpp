#include "src/cpa/cpa.hpp"

#include <algorithm>

#include "src/util/error.hpp"

namespace resched::cpa {

std::vector<int> allocations(const dag::Dag& dag, int q,
                             const Options& opts) {
  RESCHED_CHECK(q >= 1, "need at least one processor");
  const int n = dag.size();
  std::vector<int> alloc(static_cast<std::size_t>(n), 1);

  // Per-task allocation caps: the improved criterion reserves each task its
  // fair share of q among the tasks of its precedence level.
  std::vector<int> cap(static_cast<std::size_t>(n), q);
  if (opts.criterion == Criterion::kImproved) {
    std::vector<int> level_width(static_cast<std::size_t>(dag.num_levels()),
                                 0);
    for (int lvl : dag.levels()) ++level_width[static_cast<std::size_t>(lvl)];
    for (int v = 0; v < n; ++v) {
      int w = level_width[static_cast<std::size_t>(
          dag.levels()[static_cast<std::size_t>(v)])];
      cap[static_cast<std::size_t>(v)] = std::max(
          1, std::min(q, (q + w - 1) / w));
    }
  }

  // Per-task exec time at alloc and alloc + 1 and the relative gain of the
  // next grant, cached so that a grant refreshes only the granted task. The
  // arithmetic is expression-for-expression dag::exec_time / dag::work, so
  // every value is the one the per-task calls would produce.
  const double* seq = dag.seq_times().data();
  const double* alpha = dag.alphas().data();
  auto exec_at = [&](std::size_t v, int procs) {
    return seq[v] * (alpha[v] + (1.0 - alpha[v]) / static_cast<double>(procs));
  };
  auto gain_of = [](double cur, double nxt) {
    return cur <= 0.0 ? 0.0 : (cur - nxt) / cur;
  };
  const auto nz = static_cast<std::size_t>(n);
  std::vector<double> exec(nz), next(nz), gain(nz), bl(nz), tl(nz);
  // Average area, maintained incrementally as allocations grow.
  double area = 0.0;
  for (std::size_t v = 0; v < nz; ++v) {
    exec[v] = exec_at(v, 1);
    next[v] = exec_at(v, 2);
    gain[v] = gain_of(exec[v], next[v]);
    area += exec[v];  // == dag::work(dag.cost(v), 1)
  }
  double t_a = area / static_cast<double>(q);

  // Each iteration adds one processor to one task, so the loop is bounded
  // by n * (q - 1) even if T_CP never dips below T_A. Every grant re-runs
  // the full bottom-level and top-level sweeps over the CSR arrays (an
  // incremental longest-path update was measured not to pay: each grant
  // lands on the critical path, so most levels change anyway).
  const int* off = dag.succ_offsets().data();
  const int* succ = dag.succ_targets().data();
  const std::vector<int>& topo = dag.topological_order();
  while (true) {
    for (std::size_t r = nz; r-- > 0;) {
      const auto v = static_cast<std::size_t>(topo[r]);
      double longest = 0.0;
      for (int e = off[v]; e < off[v + 1]; ++e)
        longest = std::max(longest, bl[static_cast<std::size_t>(succ[e])]);
      bl[v] = exec[v] + longest;
    }
    double t_cp = *std::max_element(bl.begin(), bl.end());
    if (t_cp <= t_a) break;

    // Candidate: critical-path task with the largest relative execution-time
    // reduction from one extra processor; ties go to the longer bottom level
    // (the more schedule-critical task). The forward top-level push visits
    // tasks in topological order and a task's top level is final when it is
    // visited, so the candidate test rides along: same tolerance arithmetic
    // and visiting order as dag::critical_path_tasks.
    std::fill(tl.begin(), tl.end(), 0.0);
    double tol = 1e-9 * std::max(1.0, t_cp);
    int best = -1;
    double best_gain = 0.0;
    for (int task : topo) {
      const auto v = static_cast<std::size_t>(task);
      for (int e = off[v]; e < off[v + 1]; ++e) {
        double& t = tl[static_cast<std::size_t>(succ[e])];
        t = std::max(t, tl[v] + exec[v]);
      }
      if (tl[v] + bl[v] < t_cp - tol) continue;  // off every critical path
      if (alloc[v] >= cap[v]) continue;
      if (best < 0 || gain[v] > best_gain ||
          (gain[v] == best_gain &&
           bl[v] > bl[static_cast<std::size_t>(best)])) {
        best = task;
        best_gain = gain[v];
      }
    }
    if (best < 0 || best_gain <= 0.0) break;  // saturated: no useful growth

    auto bi = static_cast<std::size_t>(best);
    const int a = alloc[bi];
    t_a += (static_cast<double>(a + 1) * next[bi] -
            static_cast<double>(a) * exec[bi]) /
           static_cast<double>(q);
    alloc[bi] = a + 1;
    exec[bi] = next[bi];
    next[bi] = exec_at(bi, a + 2);
    gain[bi] = gain_of(exec[bi], next[bi]);
  }
  return alloc;
}

CpaSchedule schedule(const dag::Dag& dag, int q, double t0,
                     const Options& opts) {
  CpaSchedule out;
  out.alloc = allocations(dag, q, opts);
  auto bl = dag::bottom_levels(dag, out.alloc);
  auto order = dag::order_by_decreasing(dag, bl);
  out.placements = list_schedule(dag, out.alloc, q, t0, order);
  out.makespan = makespan(out.placements, t0);
  for (int v = 0; v < dag.size(); ++v)
    out.cpu_hours += dag::work(dag.cost(v),
                               out.alloc[static_cast<std::size_t>(v)]) /
                     3600.0;
  return out;
}

SubdagGuideline subdag_guideline(const dag::Dag& dag,
                                 const std::vector<bool>& keep, int q,
                                 const Options& opts) {
  auto sub = dag::induced_subdag(dag, keep);
  CpaSchedule sched = schedule(sub.dag, q, 0.0, opts);
  SubdagGuideline out;
  out.start.assign(static_cast<std::size_t>(dag.size()), -1.0);
  out.makespan = sched.makespan;
  for (int new_id = 0; new_id < sub.dag.size(); ++new_id)
    out.start[static_cast<std::size_t>(sub.to_original[
        static_cast<std::size_t>(new_id)])] =
        sched.placements[static_cast<std::size_t>(new_id)].start;
  return out;
}

}  // namespace resched::cpa
