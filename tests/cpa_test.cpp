// Unit and property tests for the CPA algorithm (paper §4.2): allocation
// phase invariants, the original vs improved stopping criterion, the
// mapping phase (list scheduling), and sub-DAG guideline schedules — plus a
// differential test of the allocation loop against the straightforward
// sweep-per-grant formulation it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>

#include "src/cpa/cpa.hpp"
#include "src/dag/daggen.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

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
  for (const Dag& d : dags)
    for (int q : {1, 2, 7, 64, 430, 1152})
      for (auto crit : {cpa::Criterion::kOriginal, cpa::Criterion::kImproved})
        EXPECT_EQ(cpa::allocations(d, q, {crit}),
                  reference_allocations(d, q, {crit}))
            << "n=" << d.size() << " q=" << q << " criterion="
            << static_cast<int>(crit);
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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

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

}  // namespace
