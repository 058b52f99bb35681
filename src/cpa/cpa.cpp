#include "src/cpa/cpa.hpp"

#include <algorithm>

#include "src/cpa/kernel.hpp"
#include "src/util/error.hpp"

namespace resched::cpa {

std::vector<int> allocations(const dag::Dag& dag, int q,
                             const Options& opts) {
  RESCHED_CHECK(q >= 1, "need at least one processor");
  Kernel kernel(dag, q, opts);
  kernel.load({});
  kernel.allocate();
  std::vector<int> alloc(static_cast<std::size_t>(dag.size()));
  for (int i = 0; i < kernel.size(); ++i)
    alloc[static_cast<std::size_t>(kernel.task_at(i))] = kernel.alloc_at(i);
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

GuidelineSeries guideline_starts(const dag::Dag& dag,
                                 std::span<const int> order,
                                 std::span<const int> alloc,
                                 std::span<const int> cpa_order, int q,
                                 const Options& opts) {
  const int n = dag.size();
  RESCHED_CHECK(static_cast<int>(order.size()) == n,
                "backward order must cover every task");
  // The run at step k stands for the CPA schedule of the rebuilt sub-DAG of
  // order[k, n) only because that set is ancestor-closed, which holds when
  // reverse(order) is a topological order: walked that way, every task
  // appears once and after all its predecessors. `keep` ends all ones.
  std::vector<char> keep(static_cast<std::size_t>(n), 0);
  for (std::size_t k = order.size(); k-- > 0;) {
    const int task = order[k];
    RESCHED_CHECK(task >= 0 && task < n &&
                      keep[static_cast<std::size_t>(task)] == 0,
                  "backward order must list every task once");
    for (int pred : dag.predecessors(task))
      RESCHED_CHECK(keep[static_cast<std::size_t>(pred)] != 0,
                    "backward order must place successors first");
    keep[static_cast<std::size_t>(task)] = 1;
  }

  // k = 0: the whole DAG, whose CPA schedule is `alloc` list-scheduled in
  // `cpa_order`. k = n - 1: a lone task, which starts at the origin.
  GuidelineSeries out;
  out.start.assign(static_cast<std::size_t>(n), 0.0);
  const std::vector<Placement> whole =
      list_schedule(dag, alloc, q, 0.0, cpa_order);
  out.makespan = makespan(whole, 0.0);
  const auto first = static_cast<std::size_t>(order[0]);
  out.start[first] = whole[first].start;
  if (n <= 2) return out;
  Kernel kernel(dag, q, opts);
  for (std::size_t k = 1; k + 1 < order.size(); ++k) {
    keep[static_cast<std::size_t>(order[k - 1])] = 0;
    kernel.load(keep);
    kernel.allocate();
    out.start[static_cast<std::size_t>(order[k])] = kernel.start_of(order[k]);
  }
  return out;
}

}  // namespace resched::cpa
