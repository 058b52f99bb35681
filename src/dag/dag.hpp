// Directed acyclic task graph (paper §3.1).
//
// A Dag owns both the precedence structure and the per-task cost parameters.
// Construction validates acyclicity; accessors expose predecessor/successor
// lists, a topological order, longest-path levels, and the level-based and
// cost-based quantities (top/bottom levels) the schedulers build on.
//
// Storage is structure-of-arrays (DESIGN.md §11): adjacency lives in two
// CSR arrays (offsets + flat endpoints, per-vertex order identical to the
// edge input order), and the cost parameters are mirrored into parallel
// seq_times()/alphas() arrays so the bottom-level and allocation sweeps —
// the measured top hot spots — stream contiguous memory instead of chasing
// a vector-of-vectors. The graph is immutable, so the mirrors can never
// drift from cost().
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "src/dag/task_model.hpp"

namespace resched::dag {

/// Immutable DAG of data-parallel tasks. Vertices are dense ints [0, size).
class Dag {
 public:
  /// Builds a DAG from explicit edges; throws resched::Error on cycles,
  /// out-of-range endpoints, self-loops, or duplicate edges.
  Dag(std::vector<TaskCost> costs,
      std::span<const std::pair<int, int>> edges);

  int size() const { return static_cast<int>(costs_.size()); }
  int num_edges() const { return num_edges_; }

  const TaskCost& cost(int task) const { return costs_.at(checked(task)); }
  std::span<const int> predecessors(int task) const {
    return adjacency(pred_off_, pred_flat_, checked(task));
  }
  std::span<const int> successors(int task) const {
    return adjacency(succ_off_, succ_flat_, checked(task));
  }

  /// SoA mirrors of cost(v).seq_time / cost(v).alpha, indexed by task — the
  /// streaming inputs of exec-time, bottom-level and top-level sweeps.
  std::span<const double> seq_times() const { return seq_times_; }
  std::span<const double> alphas() const { return alphas_; }

  /// A fixed topological order (parents before children).
  const std::vector<int>& topological_order() const { return topo_; }

  /// topo_rank()[v] = position of task v in topological_order(); the
  /// precedence-respecting tie-break key (see order_by_decreasing).
  std::span<const int> topo_rank() const { return topo_rank_; }

  /// Tasks with no predecessors / successors.
  const std::vector<int>& entries() const { return entries_; }
  const std::vector<int>& exits() const { return exits_; }
  bool has_single_entry_exit() const {
    return entries_.size() == 1 && exits_.size() == 1;
  }

  /// Longest-path depth of each task (entries have level 0).
  const std::vector<int>& levels() const { return levels_; }
  /// Number of distinct levels (DAG "height").
  int num_levels() const { return num_levels_; }
  /// Maximum number of tasks sharing one level — the DAG's task-parallelism
  /// width used by the improved CPA stopping criterion.
  int max_width() const { return max_width_; }

 private:
  // The sweeps walk the CSR arrays directly, without successors()'s
  // per-call bounds check.
  friend void bottom_levels_into(const Dag& dag, std::span<const double> exec,
                                 std::vector<double>& bl);
  friend void top_levels_into(const Dag& dag, std::span<const double> exec,
                              std::vector<double>& tl);

  std::size_t checked(int task) const;

  static std::span<const int> adjacency(const std::vector<int>& off,
                                        const std::vector<int>& flat,
                                        std::size_t task) {
    return std::span<const int>(flat).subspan(
        static_cast<std::size_t>(off[task]),
        static_cast<std::size_t>(off[task + 1] - off[task]));
  }

  std::vector<TaskCost> costs_;
  std::vector<double> seq_times_;  // SoA mirror of costs_[v].seq_time
  std::vector<double> alphas_;     // SoA mirror of costs_[v].alpha
  // CSR adjacency: task v's lists are flat[off[v], off[v+1]).
  std::vector<int> pred_off_;
  std::vector<int> pred_flat_;
  std::vector<int> succ_off_;
  std::vector<int> succ_flat_;
  std::vector<int> topo_;
  std::vector<int> topo_rank_;
  std::vector<int> entries_;
  std::vector<int> exits_;
  std::vector<int> levels_;
  int num_levels_ = 0;
  int max_width_ = 0;
  int num_edges_ = 0;
};

/// exec_time(dag.cost(v), alloc[v]) for every task, streamed off the SoA
/// arrays into a caller-owned buffer (resized; capacity reused). The
/// arithmetic is expression-for-expression dag::exec_time, so results are
/// byte-identical to calling it per task.
void exec_times_into(const Dag& dag, std::span<const int> alloc,
                     std::vector<double>& exec);

/// Bottom levels given precomputed per-task exec times (the reverse
/// topological sweep only). `exec` must come from exec_times_into (or
/// equivalent) for the same allocation. It may view `bl` itself: each
/// task's exec entry is read exactly when its bottom level is written.
void bottom_levels_into(const Dag& dag, std::span<const double> exec,
                        std::vector<double>& bl);

/// Fused exec-times + bottom-level sweep through one caller-owned buffer
/// (resized; capacity reused): `bl` holds the exec times mid-call and the
/// bottom levels on return. One scratch vector instead of two for callers
/// that never need the exec times separately.
void bottom_levels_into(const Dag& dag, std::span<const int> alloc,
                        std::vector<double>& bl);

/// Top levels given precomputed per-task exec times (the forward sweep).
void top_levels_into(const Dag& dag, std::span<const double> exec,
                     std::vector<double>& tl);

/// Bottom level of every task: exec time of the task plus the longest
/// downstream path, where task i runs on alloc[i] processors.
/// bl[i] = exec(i, alloc[i]) + max over successors s of bl[s].
std::vector<double> bottom_levels(const Dag& dag, std::span<const int> alloc);

/// Top level of every task: length of the longest upstream path *excluding*
/// the task itself. tl[i] = max over predecessors q of (tl[q] + exec(q)).
std::vector<double> top_levels(const Dag& dag, std::span<const int> alloc);

/// Critical path length = max over tasks of bottom level.
double critical_path_length(const Dag& dag, std::span<const int> alloc);

/// Tasks lying on some critical path (tl[i] + bl[i] == CP length, within
/// relative tolerance), in topological order.
std::vector<int> critical_path_tasks(const Dag& dag,
                                     std::span<const int> alloc);

/// Order tasks by decreasing key, breaking ties by topological position so
/// that predecessors always precede successors whenever keys tie.
std::vector<int> order_by_decreasing(const Dag& dag,
                                     std::span<const double> key);

/// Copy of the DAG with every sequential execution time multiplied by
/// `factor` (> 0) — used to model pessimistic runtime estimates (paper
/// §3.1: reservations are made from overestimated execution times).
Dag scale_costs(const Dag& dag, double factor);

/// Sub-DAG induced by the tasks with keep[i] == true, plus the mapping from
/// new (dense) task ids back to the original ids. Edges are retained only
/// when both endpoints are kept. keep must select at least one task.
struct SubDag {
  Dag dag;
  std::vector<int> to_original;  ///< to_original[new_id] == old_id
};
SubDag induced_subdag(const Dag& dag, const std::vector<bool>& keep);

}  // namespace resched::dag
