#include "src/cpa/list_schedule.hpp"

#include <algorithm>

#include "src/cpa/kernel.hpp"
#include "src/util/error.hpp"

namespace resched::cpa {

std::vector<Placement> list_schedule(const dag::Dag& dag,
                                     std::span<const int> alloc, int q,
                                     double t0, std::span<const int> order) {
  RESCHED_CHECK(static_cast<int>(alloc.size()) == dag.size(),
                "allocation vector size must match DAG size");
  RESCHED_CHECK(static_cast<int>(order.size()) == dag.size(),
                "priority order must cover every task");
  RESCHED_CHECK(q >= 1, "need at least one processor");

  // The free times stay sorted ascending: claim_earliest merges each
  // task's claimed slots back into place in O(q). Placement is tracked
  // apart from the times, which may be negative.
  std::vector<double> proc_free(static_cast<std::size_t>(q), t0);
  std::vector<Placement> placed(alloc.size());
  std::vector<char> done(alloc.size(), 0);

  for (int task : order) {
    RESCHED_CHECK(task >= 0 && task < dag.size(), "task index out of range");
    auto ti = static_cast<std::size_t>(task);
    RESCHED_CHECK(done[ti] == 0, "priority order must list every task once");
    int k = alloc[ti];
    RESCHED_CHECK(k >= 1 && k <= q, "allocation outside [1, q]");
    double ready = t0;
    for (int pred : dag.predecessors(task)) {
      const auto pi = static_cast<std::size_t>(pred);
      RESCHED_CHECK(done[pi] != 0,
                    "priority order must schedule predecessors first");
      ready = std::max(ready, placed[pi].finish);
    }
    placed[ti] = claim_earliest(proc_free, k, ready,
                                dag::exec_time(dag.cost(task), k));
    done[ti] = 1;
  }
  return placed;
}

double makespan(std::span<const Placement> placements, double t0) {
  double end = t0;
  for (const Placement& p : placements) end = std::max(end, p.finish);
  return end - t0;
}

}  // namespace resched::cpa
