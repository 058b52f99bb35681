// CPA — Critical Path and Area-based scheduling (Radulescu & van Gemund
// [37]), with the improved stopping criterion of N'Takpé et al. [34]
// (paper §2.1, §4.2).
//
// Phase 1 (allocation) starts every task at one processor and repeatedly
// grants one more processor to the critical-path task whose execution time
// shrinks the most *relatively*, until the critical path length T_CP no
// longer exceeds the average area T_A:
//
//     T_A = (1 / q) * sum_i alloc_i * exec_i(alloc_i).
//
// The original algorithm bounds every allocation only by q. Its known
// drawback — on large platforms allocations grow so large they smother task
// parallelism — is addressed by the improved variant, which additionally
// caps each task's allocation at ceil(q / W(t)), where W(t) is the number
// of tasks sharing t's precedence level: once the DAG can keep W(t) tasks
// concurrent, granting a single task more than its share of the q
// processors only inflates area. This realizes the "better limiting of task
// allocations" of [34] (and MCPA [7] for layered graphs); see DESIGN.md §2,
// substitution 4.
//
// Phase 2 (mapping) list-schedules tasks in decreasing bottom-level order on
// q reservation-free processors. When the reservation schedule is empty the
// paper's BL_CPA_BD_CPA algorithm reduces to exactly this schedule.
//
// Both phases run on one flat kernel (src/cpa/kernel.hpp, DESIGN.md §11):
// the tasks copied once per call into topological positions, successor and
// predecessor lists remapped to positions, and scratch reused across runs.
// allocations() runs it on the whole DAG. guideline_starts() — the
// guideline primitive of both deadline schedulers — runs it at every step
// of a backward order on the tasks still unscheduled, without building a
// sub-DAG. It must match value for value the rebuilt-sub-DAG formulation,
// which the tests keep as their oracle (tests/subdag_guideline.hpp).
#pragma once

#include <span>
#include <vector>

#include "src/cpa/list_schedule.hpp"
#include "src/dag/dag.hpp"

namespace resched::cpa {

enum class Criterion {
  kOriginal,  ///< allocations bounded only by q ([37])
  kImproved,  ///< allocations also capped at ceil(q / level width) ([34])
};

struct Options {
  Criterion criterion = Criterion::kImproved;
};

/// Phase 1: per-task processor allocations, each in [1, q].
std::vector<int> allocations(const dag::Dag& dag, int q,
                             const Options& opts = {});

/// A complete CPA schedule on q dedicated processors.
struct CpaSchedule {
  std::vector<int> alloc;             ///< phase-1 allocations
  std::vector<Placement> placements;  ///< phase-2 start/finish per task
  double makespan = 0.0;
  /// Consumed processor-hours: sum over tasks of alloc * exec / 3600.
  double cpu_hours = 0.0;
};

/// Runs both phases starting at time t0.
CpaSchedule schedule(const dag::Dag& dag, int q, double t0,
                     const Options& opts = {});

/// The guideline series of a backward scheduling order (paper §5.2.2).
struct GuidelineSeries {
  /// start[order[k]]: the start of task order[k] in the CPA schedule, on q
  /// processors from time 0, of the sub-DAG of tasks order[k, n) — the
  /// tasks not yet scheduled when the backward pass reaches it.
  std::vector<double> start;
  /// The whole DAG's CPA makespan (the k = 0 schedule's).
  double makespan = 0.0;
};

/// Computes the series value for value as CPA schedules of the rebuilt
/// sub-DAGs of order[k, n) would, on the parent DAG without building one.
/// `alloc` must be allocations(dag, q, opts) and `cpa_order`
/// dag::order_by_decreasing of its bottom levels; `order` must be backward
/// (reverse(order) a topological order), else resched::Error.
GuidelineSeries guideline_starts(const dag::Dag& dag,
                                 std::span<const int> order,
                                 std::span<const int> alloc,
                                 std::span<const int> cpa_order, int q,
                                 const Options& opts = {});

}  // namespace resched::cpa
