// The rebuilt-sub-DAG formulation of the CPA guideline (paper §5.2.2), the
// oracle that cpa::guideline_starts must match value for value: it builds
// the induced sub-DAG and runs a whole CPA schedule on it. Shared by
// cpa_test and core_deadline_test.
#pragma once

#include <cstddef>
#include <vector>

#include "src/cpa/cpa.hpp"
#include "src/dag/dag.hpp"

namespace resched::cpa {

/// CPA schedule of the sub-DAG induced by keep[], reported against original
/// task ids — the guideline-schedule primitive of the resource-conservative
/// deadline algorithms (paper §5.2.2).
struct SubdagGuideline {
  /// CPA start time of each kept task, relative to schedule start (tasks
  /// not kept hold -1).
  std::vector<double> start;
  /// Makespan of the sub-DAG's CPA schedule.
  double makespan = 0.0;
};

inline SubdagGuideline subdag_guideline(const dag::Dag& dag,
                                        const std::vector<bool>& keep, int q,
                                        const Options& opts = {}) {
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
