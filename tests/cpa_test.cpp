// Unit and property tests for the CPA algorithm (paper §4.2): allocation
// phase invariants, the original vs improved stopping criterion, the
// mapping phase (list scheduling), sub-DAG guideline schedules and the
// guideline series — plus differential tests of the allocation loop, the
// list schedule and the series against the formulations they replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>

#include "src/cpa/cpa.hpp"
#include "src/cpa/kernel.hpp"
#include "src/dag/daggen.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "tests/subdag_guideline.hpp"
#include "tests/sweep_cells.hpp"
#include "tests/tie_dags.hpp"

namespace {

using namespace resched;
using dag::Dag;
using dag::TaskCost;

Dag chain(int n, double seq = 3600.0, double alpha = 0.1) {
  std::vector<TaskCost> costs(static_cast<std::size_t>(n),
                              TaskCost{seq, alpha});
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Dag(std::move(costs), edges);
}

/// Fork-join: entry -> w parallel tasks -> exit.
Dag fork_join(int w, double seq = 3600.0, double alpha = 0.1) {
  std::vector<TaskCost> costs(static_cast<std::size_t>(w + 2),
                              TaskCost{seq, alpha});
  std::vector<std::pair<int, int>> edges;
  for (int i = 1; i <= w; ++i) {
    edges.emplace_back(0, i);
    edges.emplace_back(i, w + 1);
  }
  return Dag(std::move(costs), edges);
}

TEST(CpaAllocations, WithinBounds) {
  util::Rng rng(3);
  dag::Dag d = dag::generate(dag::DagSpec{}, rng);
  for (int q : {1, 4, 32, 128}) {
    for (auto crit : {cpa::Criterion::kOriginal, cpa::Criterion::kImproved}) {
      auto alloc = cpa::allocations(d, q, {crit});
      ASSERT_EQ(static_cast<int>(alloc.size()), d.size());
      for (int a : alloc) {
        EXPECT_GE(a, 1);
        EXPECT_LE(a, q);
      }
    }
  }
}

TEST(CpaAllocations, SingleProcessorPlatformStaysAtOne) {
  util::Rng rng(4);
  dag::Dag d = dag::generate(dag::DagSpec{}, rng);
  auto alloc = cpa::allocations(d, 1);
  for (int a : alloc) EXPECT_EQ(a, 1);
}

TEST(CpaAllocations, ChainGrowsLargeAllocations) {
  Dag d = chain(5);
  auto alloc = cpa::allocations(d, 64, {cpa::Criterion::kImproved});
  // A chain has no task parallelism: every task is alone in its level, so
  // the improved criterion lets allocations grow like the original.
  for (int a : alloc) EXPECT_GT(a, 4);
}

TEST(CpaAllocations, ImprovedCriterionCapsWideLevels) {
  Dag d = fork_join(16);
  const int q = 64;
  auto improved = cpa::allocations(d, q, {cpa::Criterion::kImproved});
  // The 16 parallel tasks may take at most ceil(64/16) = 4 processors each.
  for (int i = 1; i <= 16; ++i) EXPECT_LE(improved[static_cast<std::size_t>(i)], 4);
  // Entry/exit are alone in their level: up to q.
  EXPECT_LE(improved[0], q);
}

TEST(CpaAllocations, ImprovedNeverExceedsOriginal) {
  util::Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    dag::Dag d = dag::generate(dag::DagSpec{}, rng);
    auto orig = cpa::allocations(d, 64, {cpa::Criterion::kOriginal});
    auto impr = cpa::allocations(d, 64, {cpa::Criterion::kImproved});
    double area_orig = 0.0, area_impr = 0.0;
    for (int v = 0; v < d.size(); ++v) {
      area_orig += dag::work(d.cost(v), orig[static_cast<std::size_t>(v)]);
      area_impr += dag::work(d.cost(v), impr[static_cast<std::size_t>(v)]);
    }
    // The improved criterion only removes growth options, so it cannot
    // consume more total area.
    EXPECT_LE(area_impr, area_orig + 1e-6);
  }
}

TEST(CpaAllocations, GrowthReducesCriticalPath) {
  util::Rng rng(6);
  dag::Dag d = dag::generate(dag::DagSpec{}, rng);
  std::vector<int> ones(static_cast<std::size_t>(d.size()), 1);
  auto alloc = cpa::allocations(d, 32);
  EXPECT_LE(dag::critical_path_length(d, alloc),
            dag::critical_path_length(d, ones));
}

TEST(CpaAllocations, ValidatesArguments) {
  Dag d = chain(3);
  EXPECT_THROW(cpa::allocations(d, 0), resched::Error);
}

/// The straightforward allocation loop — full exec-time, bottom-level and
/// top-level sweeps through the dag:: helpers on every grant, each
/// candidate's gain derived afresh — kept verbatim as the differential
/// oracle for cpa::allocations.
std::vector<int> reference_allocations(const dag::Dag& dag, int q,
                                       const cpa::Options& opts) {
  RESCHED_CHECK(q >= 1, "need at least one processor");
  const int n = dag.size();
  std::vector<int> alloc(static_cast<std::size_t>(n), 1);

  // Per-task allocation caps: the improved criterion reserves each task its
  // fair share of q among the tasks of its precedence level.
  std::vector<int> cap(static_cast<std::size_t>(n), q);
  if (opts.criterion == cpa::Criterion::kImproved) {
    std::vector<int> level_width(static_cast<std::size_t>(dag.num_levels()),
                                 0);
    for (int lvl : dag.levels()) ++level_width[static_cast<std::size_t>(lvl)];
    for (int v = 0; v < n; ++v) {
      int w = level_width[static_cast<std::size_t>(
          dag.levels()[static_cast<std::size_t>(v)])];
      cap[static_cast<std::size_t>(v)] = std::max(
          1, std::min(q, (q + w - 1) / w));
    }
  }

  // Average area, maintained incrementally as allocations grow.
  double area = 0.0;
  for (int v = 0; v < n; ++v) area += dag::work(dag.cost(v), 1);
  double t_a = area / static_cast<double>(q);

  std::vector<double> exec, bl, tl;
  dag::exec_times_into(dag, alloc, exec);
  while (true) {
    dag::bottom_levels_into(dag, exec, bl);
    double t_cp = *std::max_element(bl.begin(), bl.end());
    if (t_cp <= t_a) break;

    dag::top_levels_into(dag, exec, tl);
    double tol = 1e-9 * std::max(1.0, t_cp);
    int best = -1;
    double best_gain = 0.0;
    for (int v : dag.topological_order()) {
      auto vi = static_cast<std::size_t>(v);
      if (tl[vi] + bl[vi] < t_cp - tol) continue;  // off every critical path
      if (alloc[vi] >= cap[vi]) continue;
      double cur = exec[vi];  // == dag::exec_time(dag.cost(v), alloc[vi])
      double nxt = dag::exec_time(dag.cost(v), alloc[vi] + 1);
      double gain = cur <= 0.0 ? 0.0 : (cur - nxt) / cur;
      if (best < 0 || gain > best_gain ||
          (gain == best_gain && bl[vi] > bl[static_cast<std::size_t>(best)])) {
        best = v;
        best_gain = gain;
      }
    }
    if (best < 0 || best_gain <= 0.0) break;  // saturated: no useful growth

    auto bi = static_cast<std::size_t>(best);
    t_a += (dag::work(dag.cost(best), alloc[bi] + 1) -
            dag::work(dag.cost(best), alloc[bi])) /
           static_cast<double>(q);
    ++alloc[bi];
    exec[bi] = dag::exec_time(dag.cost(best), alloc[bi]);
  }
  return alloc;
}

/// Copy of `d` whose tasks draw alpha = 0 (perfectly parallel) or alpha = 1
/// (no speedup: every grant has zero gain) with probability 1/4 each.
Dag with_extreme_alphas(const Dag& d, util::Rng& rng) {
  std::vector<TaskCost> costs;
  std::vector<std::pair<int, int>> edges;
  for (int v = 0; v < d.size(); ++v) {
    TaskCost c = d.cost(v);
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.25) c.alpha = 0.0;
    else if (u < 0.5) c.alpha = 1.0;
    costs.push_back(c);
    for (int s : d.successors(v)) edges.emplace_back(v, s);
  }
  return Dag(std::move(costs), edges);
}

/// A backward order: the reverse of a topological order that picks among
/// the ready tasks at random.
std::vector<int> random_backward_order(const Dag& d, util::Rng& rng) {
  std::vector<int> indeg, ready, order;
  for (int v = 0; v < d.size(); ++v) {
    indeg.push_back(static_cast<int>(d.predecessors(v).size()));
    if (indeg.back() == 0) ready.push_back(v);
  }
  while (!ready.empty()) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(ready.size()) - 1));
    const int v = ready[pick];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(pick));
    order.push_back(v);
    for (int s : d.successors(v))
      if (--indeg[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
  }
  std::reverse(order.begin(), order.end());
  return order;
}

/// Entry -> two parallel chains of `k` tasks -> exit. The second chain's
/// last task is `shorter` seconds shorter at one processor, so the chains'
/// lengths differ by about that much: less than one grant's reduction, by
/// about the critical-path tolerance, or by one ulp.
Dag two_branches(int k, double alpha, double shorter) {
  std::vector<TaskCost> costs(static_cast<std::size_t>(2 * k + 2),
                              TaskCost{3600.0, alpha});
  costs[static_cast<std::size_t>(2 * k)].seq_time -= shorter;
  std::vector<std::pair<int, int>> edges;
  for (int b = 0; b < 2; ++b) {
    const int first = 1 + b * k;
    edges.emplace_back(0, first);
    for (int i = first; i + 1 < first + k; ++i) edges.emplace_back(i, i + 1);
    edges.emplace_back(first + k - 1, 2 * k + 1);
  }
  return Dag(std::move(costs), edges);
}

/// `parts` disjoint chains of `k` tasks, chain c's last task `c * shorter`
/// seconds shorter: the longest chain holds position 0, which lies on no
/// path of the others. With `join`, a shared exit task turns them into one
/// component with `parts` sources.
Dag parallel_chains(int parts, int k, double shorter, bool join) {
  std::vector<TaskCost> costs(static_cast<std::size_t>(parts * k),
                              TaskCost{3600.0, 0.1});
  std::vector<std::pair<int, int>> edges;
  for (int c = 0; c < parts; ++c) {
    costs[static_cast<std::size_t>(c * k + k - 1)].seq_time -= c * shorter;
    for (int i = c * k; i + 1 < (c + 1) * k; ++i) edges.emplace_back(i, i + 1);
    if (join) edges.emplace_back(c * k + k - 1, parts * k);
  }
  if (join) costs.push_back(TaskCost{1800.0, 0.1});
  return Dag(std::move(costs), edges);
}

/// Hand-built DAGs on which the critical chain is about to change, or on
/// which a chain grant is easy to mis-charge: near-tied parallel branches,
/// a chain through zero-cost, α = 0 and α = 1 tasks, a chain task that
/// reaches its improved-criterion cap while still critical, and several
/// sources or components, so that position 0 is not on every path.
std::vector<Dag> near_tie_dags() {
  std::vector<Dag> dags;
  const double ulp = 3600.0 - std::nextafter(3600.0, 0.0);
  for (int k : {1, 3})
    for (double alpha : {0.0, 0.1, 0.9}) {
      // Half the first grant's reduction, about the 1e-9 T_CP tolerance
      // (just inside and just outside it), and one ulp.
      const double t_cp = 3600.0 * (k + 2);
      for (double shorter : {0.25 * 3600.0 * (1.0 - alpha), 1e-9 * t_cp,
                             1.1e-9 * t_cp, ulp})
        dags.push_back(two_branches(k, alpha, shorter));
    }
  {
    // entry -> zero-cost -> α = 0 -> α = 1 -> exit, beside a branch that
    // is critical at one processor and falls below the chain at two.
    std::vector<TaskCost> costs{{3600.0, 0.1}, {0.0, 0.1},    {3600.0, 0.0},
                                {3600.0, 1.0}, {1800.0, 0.1}, {10700.0, 0.2}};
    dags.emplace_back(std::move(costs),
                      std::vector<std::pair<int, int>>{
                          {0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 5}, {5, 4}});
  }
  for (int w : {2, 4, 8}) {
    // One long task in a level of w: critical, capped at ceil(q / w).
    std::vector<TaskCost> costs(static_cast<std::size_t>(w + 2),
                                TaskCost{600.0, 0.05});
    costs[1] = TaskCost{4.0 * 3600.0, 0.05};
    std::vector<std::pair<int, int>> edges;
    for (int i = 1; i <= w; ++i) {
      edges.emplace_back(0, i);
      edges.emplace_back(i, w + 1);
    }
    dags.emplace_back(std::move(costs), edges);
  }
  for (int parts : {2, 3})
    for (double shorter : {100.0, 1e-6, ulp})
      for (bool join : {false, true})
        dags.push_back(parallel_chains(parts, 3, shorter, join));
  return dags;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The kernel run on the tasks `keep` marks against the reference loop on
/// the rebuilt sub-DAG (a copy of the DAG for a full mask): every
/// allocation, and the list-schedule start of the task placed last, which
/// reads the bottom levels the kernel leaves behind.
void expect_kernel_matches_reference(const Dag& d,
                                     const std::vector<bool>& keep, int q,
                                     const cpa::Options& opts) {
  const dag::SubDag sub = dag::induced_subdag(d, keep);
  const std::vector<int> alloc = reference_allocations(sub.dag, q, opts);
  const std::vector<int> order =
      dag::order_by_decreasing(sub.dag, dag::bottom_levels(sub.dag, alloc));
  const int last = order.back();
  const double last_start =
      cpa::list_schedule(sub.dag, alloc, q, 0.0, order)
          [static_cast<std::size_t>(last)].start;

  cpa::Kernel kernel(d, q, opts);
  kernel.load(std::vector<char>(keep.begin(), keep.end()));
  kernel.allocate();
  ASSERT_EQ(kernel.size(), sub.dag.size());
  std::vector<int> got(static_cast<std::size_t>(d.size()), 0);
  for (int i = 0; i < kernel.size(); ++i)
    got[static_cast<std::size_t>(kernel.task_at(i))] = kernel.alloc_at(i);
  for (int v = 0; v < sub.dag.size(); ++v)
    EXPECT_EQ(got[static_cast<std::size_t>(
                  sub.to_original[static_cast<std::size_t>(v)])],
              alloc[static_cast<std::size_t>(v)])
        << "n=" << sub.dag.size() << " of " << d.size() << " q=" << q
        << " criterion=" << static_cast<int>(opts.criterion) << " task " << v;
  EXPECT_EQ(bits(kernel.start_of(
                sub.to_original[static_cast<std::size_t>(last)])),
            bits(last_start))
      << "n=" << sub.dag.size() << " of " << d.size() << " q=" << q
      << " criterion=" << static_cast<int>(opts.criterion);
}

TEST(CpaAllocations, MatchesReferenceLoop) {
  util::Rng rng(77);
  std::vector<Dag> dags{chain(1), chain(2), chain(7), fork_join(1),
                        fork_join(9), fork_join(40, 3600.0, 0.0),
                        fork_join(5, 3600.0, 1.0)};
  for (int n : {3, 10, 30, 100}) {
    for (int rep = 0; rep < 2; ++rep) {
      dag::DagSpec spec;
      spec.num_tasks = n;
      Dag d = dag::generate(spec, rng);
      dags.push_back(with_extreme_alphas(d, rng));
      dags.push_back(std::move(d));
    }
  }
  // Ties decide: identical costs, zero-cost tasks, several components,
  // reversed edge input and shuffled ids.
  util::Rng tie_rng(78);
  for (Dag& d : tie_dags::tie_dags(tie_rng, 40)) dags.push_back(std::move(d));
  // The critical chain about to change.
  for (Dag& d : near_tie_dags()) dags.push_back(std::move(d));
  for (const Dag& d : dags)
    for (int q : {1, 2, 7, 64, 430, 1152})
      for (auto crit : {cpa::Criterion::kOriginal, cpa::Criterion::kImproved}) {
        EXPECT_EQ(cpa::allocations(d, q, {crit}),
                  reference_allocations(d, q, {crit}))
            << "n=" << d.size() << " q=" << q << " criterion="
            << static_cast<int>(crit);
        expect_kernel_matches_reference(
            d, std::vector<bool>(static_cast<std::size_t>(d.size()), true), q,
            {crit});
      }

  // Every kept set of a random backward order: the ancestor-closed task
  // sets the guideline series loads.
  util::Rng order_rng(79);
  for (const Dag& d : dags) {
    if (d.size() > 30) continue;
    for (int q : {2, 7, 64, 1152})
      for (auto crit : {cpa::Criterion::kOriginal, cpa::Criterion::kImproved}) {
        const std::vector<int> order = random_backward_order(d, order_rng);
        std::vector<bool> keep(static_cast<std::size_t>(d.size()), true);
        for (std::size_t k = 1; k < order.size(); ++k) {
          keep[static_cast<std::size_t>(order[k - 1])] = false;
          expect_kernel_matches_reference(d, keep, q, {crit});
        }
      }
  }

  // perfbench's seed-1 sweep cells at q_hist and at p.
  for (const sim::Instance& inst : sweep_cells::sweep_cells(1))
    for (int q : {inst.q_hist, inst.profile.capacity()})
      EXPECT_EQ(cpa::allocations(inst.dag, q),
                reference_allocations(inst.dag, q, {}))
          << "n=" << inst.dag.size() << " q=" << q;
}

TEST(ListSchedule, RespectsPrecedenceAndCapacity) {
  util::Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    dag::Dag d = dag::generate(dag::DagSpec{}, rng);
    const int q = 24;
    auto alloc = cpa::allocations(d, q);
    auto bl = dag::bottom_levels(d, alloc);
    auto order = dag::order_by_decreasing(d, bl);
    auto placed = cpa::list_schedule(d, alloc, q, 100.0, order);

    // Precedence.
    for (int v = 0; v < d.size(); ++v) {
      EXPECT_GE(placed[static_cast<std::size_t>(v)].start, 100.0);
      for (int s : d.successors(v))
        EXPECT_GE(placed[static_cast<std::size_t>(s)].start,
                  placed[static_cast<std::size_t>(v)].finish - 1e-9);
    }
    // Durations match the model.
    for (int v = 0; v < d.size(); ++v) {
      const auto& pl = placed[static_cast<std::size_t>(v)];
      EXPECT_NEAR(pl.finish - pl.start,
                  dag::exec_time(d.cost(v), alloc[static_cast<std::size_t>(v)]),
                  1e-9);
    }
    // Capacity: total allocation never exceeds q at any start event.
    for (int v = 0; v < d.size(); ++v) {
      double t = placed[static_cast<std::size_t>(v)].start;
      int busy = 0;
      for (int u = 0; u < d.size(); ++u) {
        const auto& pu = placed[static_cast<std::size_t>(u)];
        if (pu.start <= t + 1e-9 && t < pu.finish - 1e-9)
          busy += alloc[static_cast<std::size_t>(u)];
      }
      EXPECT_LE(busy, q);
    }
  }
}

TEST(ListSchedule, SerialWhenAllocationsFillMachine) {
  Dag d = fork_join(3, 3600.0, 0.0);
  const int q = 8;
  std::vector<int> alloc(5, q);  // every task takes the whole machine
  auto bl = dag::bottom_levels(d, alloc);
  auto order = dag::order_by_decreasing(d, bl);
  auto placed = cpa::list_schedule(d, alloc, q, 0.0, order);
  // 5 tasks, each 3600/8 = 450s, strictly serialized.
  EXPECT_NEAR(cpa::makespan(placed, 0.0), 5 * 450.0, 1e-9);
}

TEST(ListSchedule, ParallelTasksOverlapWhenTheyFit) {
  Dag d = fork_join(3, 3600.0, 0.0);
  const int q = 6;
  std::vector<int> alloc(5, 2);  // three 2-proc tasks fit side by side
  auto bl = dag::bottom_levels(d, alloc);
  auto order = dag::order_by_decreasing(d, bl);
  auto placed = cpa::list_schedule(d, alloc, q, 0.0, order);
  // entry 1800 + parallel middle 1800 + exit 1800.
  EXPECT_NEAR(cpa::makespan(placed, 0.0), 3 * 1800.0, 1e-9);
}

TEST(ListSchedule, ValidatesInputs) {
  Dag d = chain(3);
  std::vector<int> alloc(3, 2);
  std::vector<int> order{0, 1, 2};
  EXPECT_THROW(cpa::list_schedule(d, alloc, 1, 0.0, order), resched::Error);
  std::vector<int> bad_order{2, 1, 0};  // successors before predecessors
  EXPECT_THROW(cpa::list_schedule(d, alloc, 4, 0.0, bad_order),
               resched::Error);
}

TEST(ListSchedule, SchedulesBeforeTimeZero) {
  // A schedule may start at a negative time; placement is tracked apart
  // from the finish times, which are then negative too.
  Dag d = chain(2, 3600.0, 0.0);
  const std::vector<int> alloc{2, 2};
  const std::vector<int> order{0, 1};
  const auto at_zero = cpa::list_schedule(d, alloc, 4, 0.0, order);
  const auto early = cpa::list_schedule(d, alloc, 4, -1000.0, order);
  EXPECT_EQ(early[0].start, -1000.0);
  EXPECT_EQ(early[1].start, early[0].finish);
  EXPECT_EQ(cpa::makespan(early, -1000.0), cpa::makespan(at_zero, 0.0));
  EXPECT_EQ(cpa::schedule(d, 4, -1000.0).makespan,
            cpa::schedule(d, 4, 0.0).makespan);
  const std::vector<int> successor_first{1, 0};
  EXPECT_THROW(cpa::list_schedule(d, alloc, 4, -1000.0, successor_first),
               resched::Error);
  const std::vector<int> twice{0, 0};
  EXPECT_THROW(cpa::list_schedule(d, alloc, 4, 0.0, twice), resched::Error);
}

/// The list schedule as it was before the free list stayed sorted: one
/// std::sort of all q free times per placed task. Kept verbatim as the
/// differential oracle for cpa::list_schedule's O(q) merge.
std::vector<cpa::Placement> sort_loop_list_schedule(
    const dag::Dag& dag, std::span<const int> alloc, int q, double t0,
    std::span<const int> order) {
  RESCHED_CHECK(static_cast<int>(alloc.size()) == dag.size(),
                "allocation vector size must match DAG size");
  RESCHED_CHECK(static_cast<int>(order.size()) == dag.size(),
                "priority order must cover every task");
  RESCHED_CHECK(q >= 1, "need at least one processor");

  std::vector<double> proc_free(static_cast<std::size_t>(q), t0);
  std::vector<cpa::Placement> placed(alloc.size(),
                                     cpa::Placement{-1.0, -1.0});

  for (int task : order) {
    auto ti = static_cast<std::size_t>(task);
    int k = alloc[ti];
    RESCHED_CHECK(k >= 1 && k <= q, "allocation outside [1, q]");
    double ready = t0;
    for (int pred : dag.predecessors(task)) {
      const cpa::Placement& pp = placed[static_cast<std::size_t>(pred)];
      RESCHED_CHECK(pp.finish >= 0.0,
                    "priority order must schedule predecessors first");
      ready = std::max(ready, pp.finish);
    }
    // Claim the k processors that free up earliest: sorting proc_free makes
    // the k-th smallest the gating availability.
    std::sort(proc_free.begin(), proc_free.end());
    double start = std::max(ready, proc_free[static_cast<std::size_t>(k - 1)]);
    double finish = start + dag::exec_time(dag.cost(task), k);
    for (int j = 0; j < k; ++j) proc_free[static_cast<std::size_t>(j)] = finish;
    placed[ti] = cpa::Placement{start, finish};
  }
  return placed;
}

TEST(ListSchedule, MergeMatchesSortLoop) {
  // Random allocations, a quarter of them the whole machine (k = q), in
  // the CPA priority order; identical-cost DAGs make many free times tie.
  util::Rng rng(81);
  std::vector<Dag> dags = tie_dags::tie_dags(rng, 60);
  dags.push_back(chain(1));
  for (int n : {3, 12, 50, 120}) {
    dag::DagSpec spec;
    spec.num_tasks = n;
    dags.push_back(dag::generate(spec, rng));
  }
  for (const Dag& d : dags)
    for (int q : {1, 2, 7, 64, 430})
      for (int rep = 0; rep < 3; ++rep) {
        std::vector<int> alloc;
        for (int v = 0; v < d.size(); ++v)
          alloc.push_back(rng.uniform(0.0, 1.0) < 0.25
                              ? q
                              : static_cast<int>(rng.uniform_int(1, q)));
        const auto order =
            dag::order_by_decreasing(d, dag::bottom_levels(d, alloc));
        for (double t0 : {0.0, 7200.5}) {
          const auto got = cpa::list_schedule(d, alloc, q, t0, order);
          const auto want = sort_loop_list_schedule(d, alloc, q, t0, order);
          for (int v = 0; v < d.size(); ++v) {
            const auto vi = static_cast<std::size_t>(v);
            ASSERT_EQ(bits(got[vi].start), bits(want[vi].start))
                << "n=" << d.size() << " q=" << q << " task " << v;
            ASSERT_EQ(bits(got[vi].finish), bits(want[vi].finish))
                << "n=" << d.size() << " q=" << q << " task " << v;
          }
        }
      }
}

TEST(CpaSchedule, MakespanAndCpuHoursConsistent) {
  util::Rng rng(8);
  dag::Dag d = dag::generate(dag::DagSpec{}, rng);
  auto sched = cpa::schedule(d, 32, 50.0);
  double max_finish = 0.0, hours = 0.0;
  for (int v = 0; v < d.size(); ++v) {
    const auto& pl = sched.placements[static_cast<std::size_t>(v)];
    max_finish = std::max(max_finish, pl.finish);
    hours += dag::work(d.cost(v), sched.alloc[static_cast<std::size_t>(v)]) /
             3600.0;
  }
  EXPECT_NEAR(sched.makespan, max_finish - 50.0, 1e-9);
  EXPECT_NEAR(sched.cpu_hours, hours, 1e-9);
}

TEST(CpaSchedule, MoreProcessorsNeverHurtMuch) {
  // Not a strict theorem for list scheduling, but CPA on a bigger machine
  // should never be drastically worse; check a generous monotonicity band.
  util::Rng rng(9);
  dag::Dag d = dag::generate(dag::DagSpec{}, rng);
  double m8 = cpa::schedule(d, 8, 0.0).makespan;
  double m64 = cpa::schedule(d, 64, 0.0).makespan;
  EXPECT_LT(m64, 1.5 * m8);
}

TEST(SubdagGuideline, FullMaskMatchesFullSchedule) {
  // Bit for bit: the deadline context's k = 0 guideline list-schedules the
  // original DAG instead of the full-mask sub-DAG. The reversed-edge copies
  // give every task a predecessor list in a different order from the
  // rebuilt sub-DAG's.
  util::Rng rng(10);
  std::vector<Dag> dags;
  dags.push_back(dag::generate(dag::DagSpec{}, rng));
  dags.push_back(chain(1));
  dags.push_back(chain(4));
  dags.push_back(fork_join(6));
  for (int n : {10, 40, 100}) {
    dag::DagSpec spec;
    spec.num_tasks = n;
    Dag d = dag::generate(spec, rng);
    std::vector<TaskCost> costs;
    std::vector<std::pair<int, int>> edges;
    for (int v = 0; v < d.size(); ++v) {
      costs.push_back(d.cost(v));
      for (int s : d.successors(v)) edges.emplace_back(v, s);
    }
    std::reverse(edges.begin(), edges.end());
    dags.push_back(std::move(d));
    dags.emplace_back(std::move(costs), edges);
  }
  for (const Dag& d : dags)
    for (int q : {1, 7, 32, 64, 430}) {
      std::vector<bool> keep(static_cast<std::size_t>(d.size()), true);
      auto guide = cpa::subdag_guideline(d, keep, q);
      auto sched = cpa::schedule(d, q, 0.0);
      EXPECT_EQ(bits(guide.makespan), bits(sched.makespan));
      for (int v = 0; v < d.size(); ++v)
        EXPECT_EQ(bits(guide.start[static_cast<std::size_t>(v)]),
                  bits(sched.placements[static_cast<std::size_t>(v)].start))
            << "n=" << d.size() << " q=" << q << " task " << v;
    }
}

TEST(SubdagGuideline, DroppedTasksAreMarked) {
  Dag d = chain(4);
  std::vector<bool> keep{false, false, true, true};
  auto guide = cpa::subdag_guideline(d, keep, 8);
  EXPECT_EQ(guide.start[0], -1.0);
  EXPECT_EQ(guide.start[1], -1.0);
  EXPECT_GE(guide.start[2], 0.0);
  EXPECT_GT(guide.start[3], guide.start[2]);
  EXPECT_GT(guide.makespan, 0.0);
}

TEST(SubdagGuideline, ShrinksAsTasksAreRemoved) {
  Dag d = chain(6);
  std::vector<bool> keep(6, true);
  auto full = cpa::subdag_guideline(d, keep, 8);
  keep[5] = false;
  auto partial = cpa::subdag_guideline(d, keep, 8);
  EXPECT_LT(partial.makespan, full.makespan);
}

TEST(GuidelineSeries, MatchesSubdagGuidelineAtEveryStep) {
  // Bit for bit against the long way: subdag_guideline on the rebuilt
  // sub-DAG of order[k, n) at every k, the k = 0 run giving the makespan.
  // Both the deadline context's order (reverse CPA priority) and random
  // backward orders, whose kept sets are other ancestor-closed sets.
  util::Rng rng(91);
  std::vector<Dag> dags = tie_dags::tie_dags(rng, 30);
  dags.push_back(chain(1));
  dags.push_back(chain(2));
  dags.push_back(fork_join(1));
  for (int n : {3, 20}) {
    dag::DagSpec spec;
    spec.num_tasks = n;
    dags.push_back(dag::generate(spec, rng));
  }
  for (const Dag& d : dags)
    for (int q : {1, 7, 64})
      for (auto crit : {cpa::Criterion::kOriginal, cpa::Criterion::kImproved}) {
        const cpa::Options opts{crit};
        const auto alloc = cpa::allocations(d, q, opts);
        const auto cpa_order =
            dag::order_by_decreasing(d, dag::bottom_levels(d, alloc));
        for (const auto& order :
             {std::vector<int>(cpa_order.rbegin(), cpa_order.rend()),
              random_backward_order(d, rng)}) {
          const cpa::GuidelineSeries series =
              cpa::guideline_starts(d, order, alloc, cpa_order, q, opts);
          ASSERT_EQ(series.start.size(), static_cast<std::size_t>(d.size()));
          std::vector<bool> keep(static_cast<std::size_t>(d.size()), true);
          for (std::size_t k = 0; k < order.size(); ++k) {
            const auto task = static_cast<std::size_t>(order[k]);
            const auto guide = cpa::subdag_guideline(d, keep, q, opts);
            if (k == 0) {
              EXPECT_EQ(bits(series.makespan), bits(guide.makespan));
            }
            EXPECT_EQ(bits(series.start[task]), bits(guide.start[task]))
                << "n=" << d.size() << " q=" << q << " k=" << k
                << " criterion=" << static_cast<int>(crit);
            keep[task] = false;
          }
        }
      }
}

TEST(GuidelineSeries, RejectsAnOrderWhoseReverseIsNotTopological) {
  // The series stands for the rebuilt sub-DAGs only when every kept set is
  // ancestor-closed, so it checks the order in every build.
  Dag d = fork_join(2);
  const auto alloc = cpa::allocations(d, 8);
  const auto cpa_order =
      dag::order_by_decreasing(d, dag::bottom_levels(d, alloc));
  const std::vector<int> backward(cpa_order.rbegin(), cpa_order.rend());
  EXPECT_NO_THROW(cpa::guideline_starts(d, backward, alloc, cpa_order, 8));
  const std::vector<int> forward{0, 1, 2, 3};  // predecessors first
  EXPECT_THROW(cpa::guideline_starts(d, forward, alloc, cpa_order, 8),
               resched::Error);
  const std::vector<int> entry_early{3, 0, 1, 2};  // 0 before 1 and 2
  EXPECT_THROW(cpa::guideline_starts(d, entry_early, alloc, cpa_order, 8),
               resched::Error);
  const std::vector<int> repeated{3, 1, 1, 0};
  EXPECT_THROW(cpa::guideline_starts(d, repeated, alloc, cpa_order, 8),
               resched::Error);
  const std::vector<int> short_order{3, 2, 1};
  EXPECT_THROW(cpa::guideline_starts(d, short_order, alloc, cpa_order, 8),
               resched::Error);
}

}  // namespace
