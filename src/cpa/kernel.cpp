#include "src/cpa/kernel.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "src/obs/obs.hpp"
#include "src/util/error.hpp"

namespace resched::cpa {

Placement claim_earliest(std::span<double> free, int k, double ready,
                         double exec) {
  const auto kz = static_cast<std::size_t>(k);
  const double start = std::max(ready, free[kz - 1]);
  const double finish = start + exec;
  const auto tail = std::upper_bound(free.begin() + k, free.end(), finish);
  std::fill(std::copy(free.begin() + k, tail, free.begin()), tail, finish);
  return Placement{start, finish};
}

Kernel::Kernel(const dag::Dag& dag, int q, const Options& opts)
    : dag_(dag), q_(q), opts_(opts) {
  const auto n = static_cast<std::size_t>(dag.size());
  const auto e = static_cast<std::size_t>(dag.num_edges());
  ints_.resize(8 * n + 2 * (n + 1) + 2 * e +
               static_cast<std::size_t>(dag.num_levels()));
  reals_.resize(7 * n);
  int* ip = ints_.data();
  auto ints = [&ip](std::size_t count) {
    return std::exchange(ip, ip + count);
  };
  pos_ = ints(n);
  id_ = ints(n);
  alloc_ = ints(n);
  cap_ = ints(n);
  prio_ = ints(n);
  path_ = ints(n);
  every_ = ints(n);
  soff_ = ints(n + 1);
  sdst_ = ints(e);
  poff_ = ints(n + 1);
  psrc_ = ints(e);
  width_ = ints(static_cast<std::size_t>(dag.num_levels()));
  double* rp = reals_.data();
  auto reals = [&rp](std::size_t count) {
    return std::exchange(rp, rp + count);
  };
  seq_ = reals(n);
  alpha_ = reals(n);
  exec_ = reals(n);
  next_ = reals(n);
  gain_ = reals(n);
  bl_ = reals(n);
  end_ = reals(n);
}

void Kernel::load(std::span<const char> keep) {
  const int n = dag_.size();
  std::fill(pos_, pos_ + n, -1);
  m_ = 0;
  for (int v : dag_.topological_order())
    if (keep.empty() || keep[static_cast<std::size_t>(v)] != 0) {
      pos_[v] = m_;
      id_[m_++] = v;
    }

  // Successor lists keep the DAG's CSR order, dropping unloaded tasks.
  const int* off = dag_.succ_offsets().data();
  const int* succ = dag_.succ_targets().data();
  const double* seq = dag_.seq_times().data();
  const double* alpha = dag_.alphas().data();
  int edges = 0;
  for (int i = 0; i < m_; ++i) {
    const int v = id_[i];
    soff_[i] = edges;
    for (int e = off[v]; e < off[v + 1]; ++e)
      if (const int s = pos_[succ[e]]; s >= 0) sdst_[edges++] = s;
    seq_[i] = seq[v];
    alpha_[i] = alpha[v];
  }
  soff_[m_] = edges;

  // Predecessor lists by counting sort over the successor lists (prio_ is
  // the fill cursor); the top-level pull reduces them with a max, so their
  // order does not matter.
  std::fill(poff_, poff_ + m_ + 1, 0);
  for (int e = 0; e < edges; ++e) ++poff_[sdst_[e] + 1];
  for (int i = 0; i < m_; ++i) poff_[i + 1] += poff_[i];
  std::copy(poff_, poff_ + m_, prio_);
  for (int i = 0; i < m_; ++i)
    for (int e = soff_[i]; e < soff_[i + 1]; ++e) psrc_[prio_[sdst_[e]]++] = i;
}

void Kernel::mark_every_path() {
  // Position b is on every source-to-sink path when no source comes after
  // it, no sink comes before it and no edge jumps over it: a path starts
  // at or before b, ends at or after b and climbs in position, so without
  // an edge from before b to after b it must step on b. Each condition
  // failing gives a path that avoids b.
  const int m = m_;
  int last_source = 0;
  int first_sink = m;
  for (int i = 0; i < m; ++i) {
    if (poff_[i] == poff_[i + 1]) last_source = i;
    if (soff_[i] == soff_[i + 1] && first_sink == m) first_sink = i;
  }
  int reach = 0;  // furthest successor of the positions before i
  for (int i = 0; i < m; ++i) {
    every_[i] = reach <= i && last_source <= i && i <= first_sink;
    for (int e = soff_[i]; e < soff_[i + 1]; ++e)
      reach = std::max(reach, sdst_[e]);
  }
}

int Kernel::chain_candidate(int len, double t_cp, double margin,
                            double t_a) const {
  // The critical set is the chain, so the candidate is its largest-gain
  // task below the cap. Ties go to the earlier chain task: bottom levels
  // never increase along the chain (exec >= 0 and rounding is monotone),
  // so that is the sweep's longer-bottom-level-then-position tie-break.
  int best = -1;
  double best_gain = 0.0;
  for (int j = 0; j < len; ++j) {
    const int i = path_[j];
    if (alloc_[i] >= cap_[i]) continue;
    if (best < 0 || gain_[i] > best_gain) {
      best = i;
      best_gain = gain_[i];
    }
  }
  if (best < 0 || best_gain <= 0.0) return -1;
  if (t_cp - margin <= t_a) {
    // Too close to call from the estimate: T_CP is the chain's bottom
    // level, summed right to left as the reverse sweep sums it (the chain
    // ends at a sink and each chain task's longest successor is the next).
    double bl = 0.0;
    for (int j = len; j-- > 0;) bl = exec_[path_[j]] + bl;
    if (bl <= t_a) return -1;
  }
  return best;
}

void Kernel::allocate() {
  const int m = m_;
  const int q = q_;

  // The improved criterion reserves each task its fair share of q among
  // the loaded tasks of its precedence level.
  if (opts_.criterion == Criterion::kImproved) {
    const std::vector<int>& level = dag_.levels();
    std::fill(width_, width_ + dag_.num_levels(), 0);
    for (int i = 0; i < m; ++i)
      ++width_[level[static_cast<std::size_t>(id_[i])]];
    for (int i = 0; i < m; ++i) {
      const int w = width_[level[static_cast<std::size_t>(id_[i])]];
      cap_[i] = std::max(1, std::min(q, (q + w - 1) / w));
    }
  } else {
    std::fill(cap_, cap_ + m, q);
  }

  // Per-position exec time at alloc and alloc + 1 and the relative gain of
  // the next grant, so that a grant refreshes only the granted task. The
  // arithmetic is expression-for-expression dag::exec_time / dag::work.
  auto gain_of = [](double cur, double nxt) {
    return cur <= 0.0 ? 0.0 : (cur - nxt) / cur;
  };
  for (int i = 0; i < m; ++i) {
    alloc_[i] = 1;
    exec_[i] = exec_at(i, 1);
    next_[i] = exec_at(i, 2);
    gain_[i] = gain_of(exec_[i], next_[i]);
  }
  // Average area, summed in ascending task id (the order a rebuilt
  // sub-DAG would sum it in) and maintained incrementally.
  double area = 0.0;
  for (int v = 0; v < dag_.size(); ++v)
    if (pos_[v] >= 0) area += exec_[pos_[v]];
  double t_a = area / static_cast<double>(q);
  mark_every_path();

  // Each iteration adds one processor to one task, so the loop is bounded
  // by m * (q - 1) even if T_CP never dips below T_A. A full sweep (the
  // reverse bottom-level sweep, then the forward top-level pull) decides a
  // grant exactly as the textbook loop does. When that sweep finds the
  // critical set to be one source-to-sink chain, the grants that follow
  // stay on it without sweeping for as long as `room` proves that no task
  // off the chain can turn critical; every exit follows a full sweep
  // (DESIGN.md §11, "Grants along one critical chain").
  std::uint64_t grants = 0;
  std::uint64_t sweeps = 0;
  double t_cp = 0.0;    // T_CP at the last sweep
  double margin = 0.0;  // rounding guard, relative to that T_CP
  double shrink = 0.0;  // the chain's exec reductions since the sweep
  double room = 0.0;    // how much more the chain may shrink alone
  int len = 0;          // chain length, path_[0, len)
  while (true) {
    int best = room > 0.0 ? chain_candidate(len, t_cp - shrink, margin, t_a)
                          : -1;
    if (best < 0) {
      ++sweeps;
      // Bottom levels, with T_CP folded into the same reverse sweep.
      t_cp = -std::numeric_limits<double>::infinity();
      for (int i = m; i-- > 0;) {
        double longest = 0.0;
        for (int e = soff_[i]; e < soff_[i + 1]; ++e)
          longest = std::max(longest, bl_[sdst_[e]]);
        bl_[i] = exec_[i] + longest;
        t_cp = std::max(t_cp, bl_[i]);
      }
      if (t_cp <= t_a) break;

      // Candidate: critical-path task with the largest relative execution-
      // time reduction from one extra processor; ties go to the longer
      // bottom level (the more schedule-critical task), then to the earlier
      // position. Top levels are pulled over predecessors in the same
      // forward pass, so each is final when its task is tested: same
      // tolerance arithmetic and visiting order as
      // dag::critical_path_tasks. The pass also records the critical tasks
      // in position order, checks that they form one source-to-sink chain
      // (each has the one before among its predecessors), and keeps `off`,
      // the longest path through any other task.
      const double tol = 1e-9 * std::max(1.0, t_cp);
      double off = -std::numeric_limits<double>::infinity();
      bool chain = true;
      len = 0;
      double best_gain = 0.0;
      for (int i = 0; i < m; ++i) {
        double top = 0.0;
        for (int e = poff_[i]; e < poff_[i + 1]; ++e)
          top = std::max(top, end_[psrc_[e]]);
        end_[i] = top + exec_[i];
        if (top + bl_[i] < t_cp - tol) {  // off every critical path
          off = std::max(off, top + bl_[i]);
          continue;
        }
        const int* preds = psrc_ + poff_[i];
        const int* preds_end = psrc_ + poff_[i + 1];
        chain = chain && (len == 0
                              ? preds == preds_end
                              : std::find(preds, preds_end,
                                          path_[len - 1]) != preds_end);
        path_[len++] = i;
        if (alloc_[i] >= cap_[i]) continue;
        if (best < 0 || gain_[i] > best_gain ||
            (gain_[i] == best_gain && bl_[i] > bl_[best])) {
          best = i;
          best_gain = gain_[i];
        }
      }
      if (best < 0 || best_gain <= 0.0) break;  // saturated: no useful growth
      chain = chain && soff_[path_[len - 1]] == soff_[path_[len - 1] + 1];

      // While room > 0, every task off the chain stays more than `margin`
      // below T_CP - tol, because exec only falls (add and max round
      // monotonically, so no off-chain path lengthens) while T_CP falls by
      // the chain's own reductions. A grant at a position on every path
      // shortens every path alike and charges nothing.
      margin = 1e-7 * std::max(1.0, t_cp);
      room = chain ? (t_cp - tol) - off - margin : 0.0;
      shrink = 0.0;
    }

    const int a = alloc_[best];
    const double delta = exec_[best] - next_[best];
    shrink += delta;
    if (every_[best] == 0) room -= delta;
    t_a += (static_cast<double>(a + 1) * next_[best] -
            static_cast<double>(a) * exec_[best]) /
           static_cast<double>(q);
    alloc_[best] = a + 1;
    exec_[best] = next_[best];
    next_[best] = exec_at(best, a + 2);
    gain_[best] = gain_of(exec_[best], next_[best]);
    ++grants;
  }
  OBS_COUNT("cpa.runs", 1);
  OBS_COUNT("cpa.grants", grants);
  OBS_COUNT("cpa.sweeps", sweeps);
}

double Kernel::start_of(int task) {
  // Decreasing bottom level, ties to the earlier position: the order
  // dag::order_by_decreasing gives on the rebuilt sub-DAG, whose
  // topological ranks are monotone in the positions. A predecessor's
  // bottom level is at least its successor's, so predecessors come first.
  const int m = m_;
  for (int i = 0; i < m; ++i) prio_[i] = i;
  std::sort(prio_, prio_ + m, [this](int a, int b) {
    if (bl_[a] != bl_[b]) return bl_[a] > bl_[b];
    return a < b;
  });
  free_.assign(static_cast<std::size_t>(q_), 0.0);
  const int target = pos_[task];
  for (int r = 0; r < m; ++r) {
    const int i = prio_[r];
    double ready = 0.0;
    for (int e = poff_[i]; e < poff_[i + 1]; ++e)
      ready = std::max(ready, end_[psrc_[e]]);
    const Placement placed = claim_earliest(free_, alloc_[i], ready, exec_[i]);
    if (i == target) return placed.start;
    end_[i] = placed.finish;
  }
  RESCHED_ASSERT(false, "list-scheduled task was not loaded");
  return 0.0;
}

}  // namespace resched::cpa
