// Bottom-level list scheduling of rigid (pre-allocated) tasks onto a
// reservation-free pool of q processors — CPA's mapping phase (paper §4.2,
// [37]).
//
// Tasks are placed in the given priority order; each task claims the
// alloc[i] processors that become free earliest and starts at the max of
// its data-ready time and those processors' availability.
#pragma once

#include <span>
#include <vector>

#include "src/dag/dag.hpp"

namespace resched::cpa {

/// One task's placement in a list schedule.
struct Placement {
  double start = 0.0;
  double finish = 0.0;
};

/// Schedules the whole DAG in `order` (a precedence-respecting priority
/// order listing every task once, usually decreasing bottom level) onto q
/// processors starting at time t0, which may be negative. alloc[i] is task
/// i's processor allocation, each in [1, q]. Throws resched::Error when
/// any of that does not hold.
std::vector<Placement> list_schedule(const dag::Dag& dag,
                                     std::span<const int> alloc, int q,
                                     double t0, std::span<const int> order);

/// Makespan of a placement vector (max finish minus t0).
double makespan(std::span<const Placement> placements, double t0);

}  // namespace resched::cpa
