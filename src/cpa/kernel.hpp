// The flat CPA kernel (DESIGN.md §11, "One CPA kernel"): CPA phase 1, the
// decreasing-bottom-level priority order and the list schedule, run over
// one task set laid out in topological positions. Internal to src/cpa:
// cpa::allocations runs it once on the whole DAG, cpa::guideline_starts
// once per step on the tasks still unscheduled.
//
// Position i holds the i-th kept task of the DAG's topological_order(), so
// a sweep in position order is a topological sweep, and the successor and
// predecessor lists hold positions. When the kept set is ancestor-closed
// (every predecessor of a kept task is kept), those positions are the Kahn
// order dag::induced_subdag would rebuild, the kept tasks' levels are the
// DAG's own, and a run here computes what cpa::schedule computes on the
// rebuilt sub-DAG, value for value.
#pragma once

#include <span>
#include <vector>

#include "src/cpa/cpa.hpp"
#include "src/dag/dag.hpp"

namespace resched::cpa {

/// Places a task that is ready at `ready` and runs for `exec` on the k
/// earliest entries of `free`, the processors' free times sorted ascending:
/// it starts at max(ready, free[k - 1]). The k claimed entries all become
/// its finish, which is at least each of them, so they are merged back
/// into the untouched sorted tail free[k, q) in O(q) and `free` stays
/// sorted — the value sequence a full sort would give.
Placement claim_earliest(std::span<double> free, int k, double ready,
                         double exec);

/// The kernel's arrays, sized once for any task subset of one DAG and
/// reused by every run of one call or one guideline series.
class Kernel {
 public:
  Kernel(const dag::Dag& dag, int q, const Options& opts);
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Lays out the tasks v with keep[v] != 0 (every task when keep is
  /// empty) in topological positions.
  void load(std::span<const char> keep);

  /// CPA phase 1 on q processors over the loaded tasks. Leaves each
  /// position's allocation and its bottom level under that allocation.
  /// While the last full sweep proves the critical path cannot change, it
  /// grants along that path without sweeping (DESIGN.md §11, "Grants along
  /// one critical chain"); the allocations are the per-grant sweep's.
  void allocate();

  /// List-schedules the loaded tasks from time 0 on q processors in
  /// decreasing bottom level, ties to the earlier position, and returns
  /// the start of `task` (a loaded task). Stops once it is placed.
  double start_of(int task);

  int size() const { return m_; }
  int task_at(int pos) const { return id_[pos]; }
  int alloc_at(int pos) const { return alloc_[pos]; }

 private:
  double exec_at(int pos, int procs) const {
    return seq_[pos] *
           (alpha_[pos] + (1.0 - alpha_[pos]) / static_cast<double>(procs));
  }
  /// Marks in every_ the positions that lie on every source-to-sink path.
  void mark_every_path();
  /// The next grant along the critical chain path_[0, len) without a
  /// sweep, or -1 when only a sweep can decide it. `t_cp` estimates the
  /// chain's length to within `margin`.
  int chain_candidate(int len, double t_cp, double margin, double t_a) const;

  const dag::Dag& dag_;
  const int q_;
  const Options opts_;
  int m_ = 0;  // loaded tasks

  // Two owned buffers carved into the arrays below, so a kernel costs two
  // heap allocations (plus the free list once it list-schedules).
  std::vector<int> ints_;
  std::vector<double> reals_;
  std::vector<double> free_;

  // Indexed by task id.
  int* pos_ = nullptr;    // position of the task, -1 when not loaded
  // Indexed by position.
  int* id_ = nullptr;     // task id
  int* alloc_ = nullptr;  // phase-1 allocation
  int* cap_ = nullptr;    // allocation cap: q, or the improved share
  int* prio_ = nullptr;   // list-schedule priority order (scratch in load)
  int* soff_ = nullptr;   // successor lists: sdst_[soff_[i], soff_[i + 1])
  int* sdst_ = nullptr;
  int* poff_ = nullptr;   // predecessor lists: psrc_[poff_[i], poff_[i + 1])
  int* psrc_ = nullptr;
  int* width_ = nullptr;  // kept tasks per precedence level, indexed by level
  int* path_ = nullptr;   // the last sweep's critical tasks, in position order
  int* every_ = nullptr;  // 1 when the position is on every source-sink path
  double* seq_ = nullptr;
  double* alpha_ = nullptr;
  double* exec_ = nullptr;  // exec time at alloc_
  double* next_ = nullptr;  // exec time at alloc_ + 1
  double* gain_ = nullptr;  // relative gain of the next grant
  double* bl_ = nullptr;    // bottom levels
  double* end_ = nullptr;   // phase 1: top level + exec; phase 2: finish
};

}  // namespace resched::cpa
