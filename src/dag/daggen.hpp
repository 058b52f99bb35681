// Synthetic mixed-parallel application generator (paper §3.1, Table 1).
//
// Reimplementation of the semantics of Suter's DAG generation program [14]:
// a layered random DAG shaped by four parameters.
//
//  * width      — parallelism of the DAG. Interior level sizes are drawn
//                 around n^width tasks, so width→0 yields chains and
//                 width→1 yields fork-join graphs.
//  * regularity — uniformity of level sizes. Each level size is scaled by a
//                 uniform factor in [regularity, 2 − regularity].
//  * density    — edge count between consecutive levels. Each task draws
//                 1 + U(0, density · |previous level|) parents.
//  * jump       — maximum level distance an edge may span. jump = 1 is a
//                 layered DAG (no level skipped).
//
// The generated DAG always has a single entry and a single exit task, and
// exactly `num_tasks` tasks. Task costs follow the paper's model:
// T_i ~ U(1 min, 10 h) and alpha_i ~ U(0, alpha_max).
#pragma once

#include "src/dag/dag.hpp"
#include "src/util/rng.hpp"

namespace resched::dag {

/// Parameters of one synthetic application specification (paper Table 1);
/// the defaults are the paper's (boldface row of Table 1).
struct DagSpec {
  int num_tasks = 50;        ///< total tasks incl. entry/exit; >= 3
  double alpha_max = 0.20;   ///< alpha_i ~ U(0, alpha_max)
  double width = 0.5;        ///< in (0, 1]
  double density = 0.5;      ///< in [0, 1]
  double regularity = 0.5;   ///< in (0, 1]
  int jump = 1;              ///< in {1, 2, 3, 4}
  double min_seq_time = 60.0;       ///< 1 minute  [seconds]
  double max_seq_time = 36000.0;    ///< 10 hours  [seconds]
};

/// Generates one random application instance. Deterministic given rng state.
Dag generate(const DagSpec& spec, util::Rng& rng);

}  // namespace resched::dag
