// DAGs on which ties decide CPA's choices, shared by the differential tests
// of the CPA kernel (cpa_test) and of the deadline context
// (core_deadline_test): exact gain and bottom-level ties, zero-cost tasks,
// disconnected components, and copies whose task ids or edge input order
// differ from the original's.
#pragma once

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "src/dag/dag.hpp"
#include "src/dag/daggen.hpp"
#include "src/util/rng.hpp"

namespace resched::tie_dags {

/// `layers` layers of `width` identical tasks; task i of a layer feeds
/// tasks (i + j) % width, j < fan, of the next. Gains and bottom levels
/// tie exactly, so the earliest task in topological order wins each tie.
inline dag::Dag layered(int layers, int width, int fan, double seq = 3600.0,
                        double alpha = 0.1) {
  std::vector<dag::TaskCost> costs(static_cast<std::size_t>(layers * width),
                                   dag::TaskCost{seq, alpha});
  std::vector<std::pair<int, int>> edges;
  for (int l = 0; l + 1 < layers; ++l)
    for (int i = 0; i < width; ++i)
      for (int j = 0; j < std::min(fan, width); ++j)
        edges.emplace_back(l * width + i, (l + 1) * width + (i + j) % width);
  return dag::Dag(std::move(costs), edges);
}

/// The edge list of `d`, in CSR order.
inline std::vector<std::pair<int, int>> edges_of(const dag::Dag& d) {
  std::vector<std::pair<int, int>> edges;
  for (int v = 0; v < d.size(); ++v)
    for (int s : d.successors(v)) edges.emplace_back(v, s);
  return edges;
}

inline std::vector<dag::TaskCost> costs_of(const dag::Dag& d) {
  std::vector<dag::TaskCost> costs;
  for (int v = 0; v < d.size(); ++v) costs.push_back(d.cost(v));
  return costs;
}

/// Copy of `d` in which each task has seq_time 0 with probability 1/3:
/// bottom levels tie along its edges, so the priority order falls back to
/// topological rank.
inline dag::Dag with_zero_seq(const dag::Dag& d, util::Rng& rng) {
  std::vector<dag::TaskCost> costs = costs_of(d);
  for (dag::TaskCost& c : costs)
    if (rng.uniform(0.0, 1.0) < 1.0 / 3.0) c.seq_time = 0.0;
  return dag::Dag(std::move(costs), edges_of(d));
}

/// Disjoint union of `parts`, ids offset in order.
inline dag::Dag disjoint_union(const std::vector<dag::Dag>& parts) {
  std::vector<dag::TaskCost> costs;
  std::vector<std::pair<int, int>> edges;
  for (const dag::Dag& part : parts) {
    const int base = static_cast<int>(costs.size());
    for (auto [from, to] : edges_of(part))
      edges.emplace_back(base + from, base + to);
    for (const dag::TaskCost& c : costs_of(part)) costs.push_back(c);
  }
  return dag::Dag(std::move(costs), edges);
}

/// The same graph built from its edge list in reverse: every successor and
/// predecessor list is reversed, and so is Kahn's visiting order.
inline dag::Dag reversed_edges(const dag::Dag& d) {
  std::vector<std::pair<int, int>> edges = edges_of(d);
  std::reverse(edges.begin(), edges.end());
  return dag::Dag(costs_of(d), edges);
}

/// The same graph with its task ids shuffled, so id order and topological
/// order disagree.
inline dag::Dag relabeled(const dag::Dag& d, util::Rng& rng) {
  std::vector<int> id(static_cast<std::size_t>(d.size()));
  std::iota(id.begin(), id.end(), 0);
  for (std::size_t i = id.size(); i > 1; --i)
    std::swap(id[i - 1], id[static_cast<std::size_t>(
                             rng.uniform_int(0, static_cast<int>(i) - 1))]);
  std::vector<dag::TaskCost> costs(id.size());
  for (int v = 0; v < d.size(); ++v)
    costs[static_cast<std::size_t>(id[static_cast<std::size_t>(v)])] =
        d.cost(v);
  std::vector<std::pair<int, int>> edges;
  for (auto [from, to] : edges_of(d))
    edges.emplace_back(id[static_cast<std::size_t>(from)],
                       id[static_cast<std::size_t>(to)]);
  return dag::Dag(std::move(costs), edges);
}

/// The whole family: identical-cost layered graphs, zero-cost tasks,
/// two- and three-component unions, and reversed-edge and relabeled
/// copies of daggen DAGs of up to `max_tasks` tasks.
inline std::vector<dag::Dag> tie_dags(util::Rng& rng, int max_tasks) {
  auto daggen = [&rng](int n) {
    dag::DagSpec spec;
    spec.num_tasks = n;
    return dag::generate(spec, rng);
  };
  std::vector<dag::Dag> out;
  out.push_back(layered(4, 3, 3));
  out.push_back(layered(5, 4, 2));
  out.push_back(layered(3, 6, 1, 3600.0, 0.0));
  out.push_back(layered(6, 2, 2, 1800.0, 1.0));
  for (int n : {10, max_tasks}) {
    const dag::Dag d = daggen(n);
    out.push_back(with_zero_seq(d, rng));
    out.push_back(reversed_edges(d));
    out.push_back(relabeled(d, rng));
  }
  out.push_back(with_zero_seq(layered(4, 3, 2), rng));
  out.push_back(disjoint_union({daggen(6), layered(3, 2, 2)}));
  out.push_back(disjoint_union({daggen(5), daggen(8), daggen(4)}));
  out.push_back(reversed_edges(disjoint_union({layered(2, 3, 3), daggen(7)})));
  return out;
}

}  // namespace resched::tie_dags
