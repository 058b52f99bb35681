#include "src/dag/dag.hpp"

#include <algorithm>
#include <cstddef>
#include <numeric>

#include "src/obs/obs.hpp"
#include "src/util/error.hpp"

namespace resched::dag {

Dag::Dag(std::vector<TaskCost> costs,
         std::span<const std::pair<int, int>> edges)
    : costs_(std::move(costs)) {
  const int n = size();
  RESCHED_CHECK(n > 0, "DAG must contain at least one task");
  for (auto [from, to] : edges) {
    RESCHED_CHECK(from >= 0 && from < n && to >= 0 && to < n,
                  "edge endpoint out of range");
    RESCHED_CHECK(from != to, "self-loop edge");
  }
  num_edges_ = static_cast<int>(edges.size());

  // CSR adjacency via counting sort over the edge list. Filling in input
  // order keeps each vertex's list in the same order push_back produced
  // before the SoA rewrite, so every downstream sweep sees identical
  // iteration order.
  pred_off_.assign(static_cast<std::size_t>(n) + 1, 0);
  succ_off_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (auto [from, to] : edges) {
    ++succ_off_[static_cast<std::size_t>(from) + 1];
    ++pred_off_[static_cast<std::size_t>(to) + 1];
  }
  std::partial_sum(pred_off_.begin(), pred_off_.end(), pred_off_.begin());
  std::partial_sum(succ_off_.begin(), succ_off_.end(), succ_off_.begin());
  pred_flat_.resize(edges.size());
  succ_flat_.resize(edges.size());
  std::vector<int> pred_cursor(pred_off_.begin(), pred_off_.end() - 1);
  std::vector<int> succ_cursor(succ_off_.begin(), succ_off_.end() - 1);
  for (auto [from, to] : edges) {
    succ_flat_[static_cast<std::size_t>(
        succ_cursor[static_cast<std::size_t>(from)]++)] = to;
    pred_flat_[static_cast<std::size_t>(
        pred_cursor[static_cast<std::size_t>(to)]++)] = from;
  }

  // Duplicate-edge detection with a stamp array: O(V + E), no set churn.
  std::vector<int> stamp(static_cast<std::size_t>(n), -1);
  for (int v = 0; v < n; ++v) {
    for (int s : successors(v)) {
      RESCHED_CHECK(stamp[static_cast<std::size_t>(s)] != v, "duplicate edge");
      stamp[static_cast<std::size_t>(s)] = v;
    }
  }

  // Kahn's algorithm: topological order + cycle detection.
  std::vector<int> indeg(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v)
    indeg[static_cast<std::size_t>(v)] =
        pred_off_[static_cast<std::size_t>(v) + 1] -
        pred_off_[static_cast<std::size_t>(v)];
  std::vector<int> ready;
  for (int v = 0; v < n; ++v)
    if (indeg[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
  topo_.reserve(static_cast<std::size_t>(n));
  for (std::size_t head = 0; head < ready.size(); ++head) {
    int v = ready[head];
    topo_.push_back(v);
    for (int s : successors(v))
      if (--indeg[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
  }
  RESCHED_CHECK(static_cast<int>(topo_.size()) == n, "graph contains a cycle");
  topo_rank_.resize(static_cast<std::size_t>(n));
  for (std::size_t r = 0; r < topo_.size(); ++r)
    topo_rank_[static_cast<std::size_t>(topo_[r])] = static_cast<int>(r);

  for (int v = 0; v < n; ++v) {
    if (predecessors(v).empty()) entries_.push_back(v);
    if (successors(v).empty()) exits_.push_back(v);
  }

  // Longest-path levels in topological order.
  levels_.assign(static_cast<std::size_t>(n), 0);
  for (int v : topo_)
    for (int s : successors(v))
      levels_[static_cast<std::size_t>(s)] =
          std::max(levels_[static_cast<std::size_t>(s)],
                   levels_[static_cast<std::size_t>(v)] + 1);
  num_levels_ = 1 + *std::max_element(levels_.begin(), levels_.end());
  std::vector<int> width(static_cast<std::size_t>(num_levels_), 0);
  for (int lvl : levels_) ++width[static_cast<std::size_t>(lvl)];
  max_width_ = *std::max_element(width.begin(), width.end());

  // SoA mirrors of the cost parameters for the streaming sweeps.
  seq_times_.resize(static_cast<std::size_t>(n));
  alphas_.resize(static_cast<std::size_t>(n));
  for (std::size_t v = 0; v < costs_.size(); ++v) {
    seq_times_[v] = costs_[v].seq_time;
    alphas_[v] = costs_[v].alpha;
  }
}

std::size_t Dag::checked(int task) const {
  RESCHED_CHECK(task >= 0 && task < size(), "task index out of range");
  return static_cast<std::size_t>(task);
}

void exec_times_into(const Dag& dag, std::span<const int> alloc,
                     std::vector<double>& exec) {
  RESCHED_CHECK(static_cast<int>(alloc.size()) == dag.size(),
                "allocation vector size must match DAG size");
  for (std::size_t v = 0; v < alloc.size(); ++v)
    RESCHED_CHECK(alloc[v] >= 1, "task needs at least one processor");
  exec.resize(alloc.size());
  // Expression-for-expression dag::exec_time, streamed off the SoA arrays.
  const std::span<const double> seq = dag.seq_times();
  const std::span<const double> alpha = dag.alphas();
  for (std::size_t v = 0; v < alloc.size(); ++v)
    exec[v] =
        seq[v] * (alpha[v] + (1.0 - alpha[v]) / static_cast<double>(alloc[v]));
}

void bottom_levels_into(const Dag& dag, std::span<const double> exec,
                        std::vector<double>& bl) {
  RESCHED_CHECK(static_cast<int>(exec.size()) == dag.size(),
                "exec-time vector size must match DAG size");
  bl.resize(exec.size());  // same size when exec views bl: no reallocation
  // The phase keeps its kernels.* name because perfbench reports it as
  // sweep.bl_kernel_us.
  OBS_PHASE("kernels.bl_sweep_ns");
  const int* off = dag.succ_off_.data();
  const int* succ = dag.succ_flat_.data();
  const double* ex = exec.data();
  double* out = bl.data();
  for (std::size_t r = dag.topo_.size(); r-- > 0;) {
    const int v = dag.topo_[r];
    double best = 0.0;
    for (int e = off[v]; e < off[v + 1]; ++e)
      best = std::max(best, out[succ[e]]);
    out[v] = ex[v] + best;
  }
}

void bottom_levels_into(const Dag& dag, std::span<const int> alloc,
                        std::vector<double>& bl) {
  exec_times_into(dag, alloc, bl);
  bottom_levels_into(dag, bl, bl);
}

void top_levels_into(const Dag& dag, std::span<const double> exec,
                     std::vector<double>& tl) {
  RESCHED_CHECK(static_cast<int>(exec.size()) == dag.size(),
                "exec-time vector size must match DAG size");
  tl.assign(exec.size(), 0.0);
  // Forward push: tl[s] = max over predecessors q of (tl[q] + exec[q]).
  const int* off = dag.succ_off_.data();
  const int* succ = dag.succ_flat_.data();
  const double* ex = exec.data();
  double* out = tl.data();
  for (int v : dag.topo_)
    for (int e = off[v]; e < off[v + 1]; ++e)
      out[succ[e]] = std::max(out[succ[e]], out[v] + ex[v]);
}

std::vector<double> bottom_levels(const Dag& dag, std::span<const int> alloc) {
  std::vector<double> bl;
  bottom_levels_into(dag, alloc, bl);
  return bl;
}

std::vector<double> top_levels(const Dag& dag, std::span<const int> alloc) {
  std::vector<double> exec;
  exec_times_into(dag, alloc, exec);
  std::vector<double> tl;
  top_levels_into(dag, exec, tl);
  return tl;
}

double critical_path_length(const Dag& dag, std::span<const int> alloc) {
  auto bl = bottom_levels(dag, alloc);
  return *std::max_element(bl.begin(), bl.end());
}

std::vector<int> critical_path_tasks(const Dag& dag,
                                     std::span<const int> alloc) {
  auto bl = bottom_levels(dag, alloc);
  auto tl = top_levels(dag, alloc);
  double cp = *std::max_element(bl.begin(), bl.end());
  // Relative tolerance guards against accumulation differences between the
  // forward (top level) and backward (bottom level) sweeps.
  double tol = 1e-9 * std::max(1.0, cp);
  std::vector<int> on_cp;
  for (int v : dag.topological_order()) {
    auto i = static_cast<std::size_t>(v);
    if (tl[i] + bl[i] >= cp - tol) on_cp.push_back(v);
  }
  return on_cp;
}

Dag scale_costs(const Dag& dag, double factor) {
  RESCHED_CHECK(factor > 0.0, "cost scale factor must be positive");
  std::vector<TaskCost> costs;
  costs.reserve(static_cast<std::size_t>(dag.size()));
  for (int v = 0; v < dag.size(); ++v) {
    TaskCost c = dag.cost(v);
    c.seq_time *= factor;
    costs.push_back(c);
  }
  std::vector<std::pair<int, int>> edges;
  edges.reserve(static_cast<std::size_t>(dag.num_edges()));
  for (int v = 0; v < dag.size(); ++v)
    for (int s : dag.successors(v)) edges.emplace_back(v, s);
  return Dag(std::move(costs), edges);
}

SubDag induced_subdag(const Dag& dag, const std::vector<bool>& keep) {
  RESCHED_CHECK(static_cast<int>(keep.size()) == dag.size(),
                "keep mask size must match DAG size");
  std::vector<int> to_original;
  std::vector<int> to_new(keep.size(), -1);
  for (int v = 0; v < dag.size(); ++v) {
    if (!keep[static_cast<std::size_t>(v)]) continue;
    to_new[static_cast<std::size_t>(v)] =
        static_cast<int>(to_original.size());
    to_original.push_back(v);
  }
  RESCHED_CHECK(!to_original.empty(), "induced sub-DAG must be non-empty");

  std::vector<TaskCost> costs;
  costs.reserve(to_original.size());
  for (int old_id : to_original) costs.push_back(dag.cost(old_id));

  std::vector<std::pair<int, int>> edges;
  for (int old_id : to_original)
    for (int s : dag.successors(old_id))
      if (to_new[static_cast<std::size_t>(s)] >= 0)
        edges.emplace_back(to_new[static_cast<std::size_t>(old_id)],
                           to_new[static_cast<std::size_t>(s)]);

  return SubDag{Dag(std::move(costs), edges), std::move(to_original)};
}

std::vector<int> order_by_decreasing(const Dag& dag,
                                     std::span<const double> key) {
  RESCHED_CHECK(static_cast<int>(key.size()) == dag.size(),
                "key vector size must match DAG size");
  // Rank in topological order (precomputed by the Dag) so equal keys keep
  // precedence order.
  const std::span<const int> topo_rank = dag.topo_rank();
  std::vector<int> order(key.size());
  for (std::size_t v = 0; v < key.size(); ++v) order[v] = static_cast<int>(v);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    auto ia = static_cast<std::size_t>(a), ib = static_cast<std::size_t>(b);
    if (key[ia] != key[ib]) return key[ia] > key[ib];
    return topo_rank[ia] < topo_rank[ib];
  });
  return order;
}

}  // namespace resched::dag
