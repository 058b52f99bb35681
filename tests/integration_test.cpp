// Integration tests: the full experiment drivers on miniature grids,
// asserting cross-module behaviour and the paper's headline orderings on
// small (but real) workloads.
#include <gtest/gtest.h>

#include <cmath>

#include "src/sim/experiment.hpp"

namespace {

using namespace resched;

sim::RunConfig tiny_config() {
  sim::RunConfig config;
  config.dag_samples = 2;
  config.resv_samples = 2;
  config.threads = 2;
  config.seed = 7;
  return config;
}

std::vector<sim::ScenarioSpec> tiny_grid() {
  std::vector<sim::ScenarioSpec> grid;
  for (double phi : {0.1, 0.5}) {
    sim::ScenarioSpec s;
    s.app.num_tasks = 15;
    s.platform = sim::Platform::kSdscDs;  // small platform keeps this fast
    s.tagging.phi = phi;
    s.tagging.method = workload::DecayMethod::kExpo;
    s.label = "tiny/phi=" + std::to_string(phi);
    grid.push_back(std::move(s));
  }
  return grid;
}

TEST(Integration, ResschedComparisonProducesFullTable) {
  auto grid = tiny_grid();
  auto algos = core::table4_algorithms();
  auto table = sim::run_ressched_comparison(grid, algos, tiny_config());

  EXPECT_EQ(table.scenarios(), 2);
  ASSERT_EQ(table.algos().size(), 4u);
  ASSERT_EQ(table.metrics().size(), 2u);
  int total_wins_tat = 0;
  for (int a = 0; a < 4; ++a) {
    EXPECT_GE(table.avg_degradation_pct(a, 0), 0.0);
    EXPECT_GE(table.avg_degradation_pct(a, 1), 0.0);
    total_wins_tat += table.wins(a, 0);
  }
  // Every scenario has at least one winner (possibly shared).
  EXPECT_GE(total_wins_tat, table.scenarios());

  // Paper ordering: the CPA-bounded algorithms beat BD_ALL on CPU-hours.
  double cpa_cpu = table.avg_degradation_pct(3, 1);   // BD_CPAR
  double all_cpu = table.avg_degradation_pct(0, 1);   // BD_ALL
  EXPECT_LT(cpa_cpu, all_cpu);
}

TEST(Integration, ResschedComparisonDeterministicAcrossThreadCounts) {
  auto grid = tiny_grid();
  auto algos = core::table4_algorithms();
  auto serial_cfg = tiny_config();
  serial_cfg.threads = 1;
  auto parallel_cfg = tiny_config();
  parallel_cfg.threads = 4;

  auto serial = sim::run_ressched_comparison(grid, algos, serial_cfg);
  auto parallel = sim::run_ressched_comparison(grid, algos, parallel_cfg);
  for (int a = 0; a < 4; ++a) {
    for (int m = 0; m < 2; ++m) {
      EXPECT_DOUBLE_EQ(serial.avg_degradation_pct(a, m),
                       parallel.avg_degradation_pct(a, m));
      EXPECT_EQ(serial.wins(a, m), parallel.wins(a, m));
    }
  }
}

TEST(Integration, BlComparisonCoversAllCases) {
  auto grid = tiny_grid();
  auto result = sim::run_bl_comparison(grid, tiny_config());
  EXPECT_EQ(result.cases, 2 * 3);  // scenarios x BD methods
  double total = 0.0;
  ASSERT_EQ(result.best_fraction.size(), 4u);
  for (double f : result.best_fraction) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    total += f;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_LE(result.min_improvement_pct, result.max_improvement_pct);
}

TEST(Integration, DeadlineComparisonReproducesCpuOrdering) {
  // One light scenario; the deadline study is the expensive one.
  std::vector<sim::ScenarioSpec> grid{tiny_grid()[0]};
  grid[0].app.num_tasks = 12;
  auto config = tiny_config();
  config.dag_samples = 2;
  config.resv_samples = 1;

  std::vector<core::NamedDeadline> algos;
  for (auto algo : {core::DlAlgo::kBdCpa, core::DlAlgo::kRcCpar}) {
    core::NamedDeadline named;
    named.name = core::to_string(algo);
    named.params.algo = algo;
    algos.push_back(named);
  }
  auto table = sim::run_deadline_comparison(grid, algos, config);
  EXPECT_EQ(table.scenarios(), 1);
  // The paper's headline: the resource-conservative algorithm consumes far
  // fewer CPU-hours at a loose deadline.
  EXPECT_LT(table.avg_degradation_pct(1, 1), table.avg_degradation_pct(0, 1));
  // And both produce finite tightest deadlines.
  EXPECT_TRUE(std::isfinite(table.avg_degradation_pct(0, 0)));
  EXPECT_TRUE(std::isfinite(table.avg_degradation_pct(1, 0)));
}

TEST(Integration, DeadlineComparisonDeterministicAcrossThreadCounts) {
  // The grid builds deadline contexts (and their guideline series) on
  // several threads at once; the table must not depend on how many.
  std::vector<sim::ScenarioSpec> grid = tiny_grid();
  for (sim::ScenarioSpec& s : grid) s.app.num_tasks = 12;
  std::vector<core::NamedDeadline> algos;
  for (auto algo : {core::DlAlgo::kBdCpa, core::DlAlgo::kRcCpar}) {
    core::NamedDeadline named;
    named.name = core::to_string(algo);
    named.params.algo = algo;
    algos.push_back(named);
  }
  auto serial_cfg = tiny_config();
  serial_cfg.threads = 1;
  auto parallel_cfg = tiny_config();
  parallel_cfg.threads = 4;

  auto serial = sim::run_deadline_comparison(grid, algos, serial_cfg);
  auto parallel = sim::run_deadline_comparison(grid, algos, parallel_cfg);
  ASSERT_EQ(serial.scenarios(), 2);
  ASSERT_EQ(serial.metrics().size(), 2u);
  for (int a = 0; a < 2; ++a) {
    for (int m = 0; m < 2; ++m) {
      EXPECT_DOUBLE_EQ(serial.avg_degradation_pct(a, m),
                       parallel.avg_degradation_pct(a, m));
      EXPECT_EQ(serial.wins(a, m), parallel.wins(a, m));
    }
  }
}

TEST(Integration, TimingHarnessReportsAllAlgorithms) {
  std::vector<sim::ScenarioSpec> grid{tiny_grid()[0]};
  grid[0].app.num_tasks = 12;
  auto config = tiny_config();
  config.dag_samples = 1;
  config.resv_samples = 1;

  auto ressched = core::table4_algorithms();
  std::vector<core::NamedDeadline> deadline;
  {
    core::NamedDeadline named;
    named.name = "DL_BD_CPA";
    named.params.algo = core::DlAlgo::kBdCpa;
    deadline.push_back(named);
    named.name = "DL_RC_CPAR";
    named.params.algo = core::DlAlgo::kRcCpar;
    deadline.push_back(named);
  }
  auto timing = sim::run_timing(grid, ressched, deadline, config);
  ASSERT_EQ(timing.names.size(), 6u);
  ASSERT_EQ(timing.median_ms.size(), 6u);
  for (std::size_t a = 0; a < 6; ++a) {
    EXPECT_GE(timing.q1_ms[a], 0.0);
    EXPECT_LE(timing.q1_ms[a], timing.median_ms[a]);
    EXPECT_LE(timing.median_ms[a], timing.q3_ms[a]);
  }
  // The resource-conservative algorithm must be measurably slower than its
  // aggressive counterpart (paper §6.2: a factor 10-90).
  EXPECT_GT(timing.median_ms[5], timing.median_ms[4]);
}

}  // namespace
