// Tests for the experiment framework: const calendar queries shared
// across the worker-pool lanes that run experiment cells,
// degradation-from-best aggregation, scenario grids, instance
// construction, and table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>

#include "src/resv/linear_profile.hpp"
#include "src/resv/profile.hpp"
#include "src/sim/metrics.hpp"
#include "src/sim/scenario.hpp"
#include "src/sim/table.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "src/util/worker_pool.hpp"
#include "tests/fit_probe.hpp"

namespace {

using namespace resched;
using fit_probe::FitProbe;
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(ExperimentCells, ConstCalendarQueriesAreThreadSafe) {
  // Experiment cells share one competing calendar read-only. Four pool
  // lanes run 2,000 earliest/latest fits each against the same small
  // profile; every answer must match the LinearProfile oracle, and under
  // the TSan leg any write a const query makes to shared state is a
  // reported race.
  constexpr int kCapacity = 64;
  constexpr int kCells = 4;
  constexpr int kFitsPerCell = 2000;
  util::Rng rng(0x7EAD5);
  resv::ReservationList reservations;
  for (int i = 0; i < 20; ++i) {
    double start = rng.uniform(0.0, 48.0) * 3600.0;
    double duration = rng.uniform(0.5, 12.0) * 3600.0;
    int procs = static_cast<int>(rng.uniform_int(1, kCapacity));
    reservations.push_back({start, start + duration, procs});
  }
  const resv::AvailabilityProfile profile(kCapacity, reservations);
  const resv::LinearProfile oracle(kCapacity, reservations);

  std::vector<FitProbe> queries;
  for (int i = 0; i < kCells * kFitsPerCell; ++i) {
    int procs = static_cast<int>(rng.uniform_int(1, kCapacity));
    double duration = rng.uniform(0.1, 12.0) * 3600.0;
    double not_before = rng.uniform(0.0, 60.0) * 3600.0;
    double deadline = not_before + rng.uniform(1.0, 48.0) * 3600.0;
    queries.push_back(
        i % 2 == 0 ? FitProbe::earliest(procs, duration, not_before)
                   : FitProbe::latest(procs, duration, deadline, not_before));
  }

  std::vector<FitProbe::Answer> got(queries.size());
  util::WorkerPool pool(kCells);
  pool.run(kCells, [&](int cell) {
    for (int k = 0; k < kFitsPerCell; ++k) {
      auto i = static_cast<std::size_t>(cell * kFitsPerCell + k);
      got[i] = queries[i].answer(profile);
    }
  });
  const std::vector<FitProbe::Answer> want =
      fit_probe::answer_all(oracle, queries);
  for (std::size_t i = 0; i < queries.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "query " << i;
}

TEST(DegradationAggregator, HandComputedValues) {
  sim::DegradationAggregator agg(3);
  agg.add_instance(std::vector<double>{10.0, 12.0, 20.0});
  agg.add_instance(std::vector<double>{10.0, 10.0, 30.0});
  auto deg = agg.avg_degradation_pct();
  EXPECT_DOUBLE_EQ(deg[0], 0.0);
  EXPECT_DOUBLE_EQ(deg[1], 10.0);   // (20 + 0) / 2
  EXPECT_DOUBLE_EQ(deg[2], 150.0);  // (100 + 200) / 2
  auto winners = agg.winners();
  EXPECT_EQ(winners, std::vector<int>{0});
}

TEST(DegradationAggregator, TiesShareTheWin) {
  sim::DegradationAggregator agg(2);
  agg.add_instance(std::vector<double>{5.0, 5.0});
  EXPECT_EQ(agg.winners().size(), 2u);
}

TEST(DegradationAggregator, NanExcludesAlgorithm) {
  sim::DegradationAggregator agg(2);
  agg.add_instance(std::vector<double>{kNan, 4.0});
  agg.add_instance(std::vector<double>{2.0, 4.0});
  auto deg = agg.avg_degradation_pct();
  EXPECT_DOUBLE_EQ(deg[0], 0.0);    // single valid sample, it was best
  EXPECT_DOUBLE_EQ(deg[1], 50.0);   // (0 + 100) / 2
  EXPECT_EQ(agg.failures()[0], 1u);
  EXPECT_EQ(agg.failures()[1], 0u);
}

TEST(DegradationAggregator, AllNanInstanceCountsAsFailureEverywhere) {
  sim::DegradationAggregator agg(2);
  agg.add_instance(std::vector<double>{kNan, kNan});
  EXPECT_EQ(agg.failures()[0], 1u);
  EXPECT_EQ(agg.failures()[1], 1u);
  EXPECT_TRUE(agg.winners().empty());
}

TEST(DegradationAggregator, ZeroBestHandled) {
  sim::DegradationAggregator agg(2);
  agg.add_instance(std::vector<double>{0.0, 1.0});
  auto deg = agg.avg_degradation_pct();
  EXPECT_DOUBLE_EQ(deg[0], 0.0);
  EXPECT_DOUBLE_EQ(deg[1], 100.0);  // relative to denom 1
}

TEST(ComparisonTable, AggregatesAcrossScenarios) {
  sim::ComparisonTable table({"A", "B"}, {"m"});
  {
    sim::DegradationAggregator agg(2);
    agg.add_instance(std::vector<double>{1.0, 2.0});
    table.add_scenario(std::vector<sim::DegradationAggregator>{agg});
  }
  {
    sim::DegradationAggregator agg(2);
    agg.add_instance(std::vector<double>{3.0, 3.0});
    table.add_scenario(std::vector<sim::DegradationAggregator>{agg});
  }
  EXPECT_EQ(table.scenarios(), 2);
  EXPECT_DOUBLE_EQ(table.avg_degradation_pct(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(table.avg_degradation_pct(1, 0), 50.0);
  EXPECT_EQ(table.wins(0, 0), 2);
  EXPECT_EQ(table.wins(1, 0), 1);  // tie in scenario 2
  EXPECT_NE(table.to_string().find("Algorithm"), std::string::npos);
}

TEST(ComparisonTable, ValidatesShape) {
  sim::ComparisonTable table({"A"}, {"m1", "m2"});
  sim::DegradationAggregator agg(1);
  EXPECT_THROW(
      table.add_scenario(std::vector<sim::DegradationAggregator>{agg}),
      resched::Error);
}

TEST(Scenario, Table1GridHasFortySpecs) {
  auto specs = sim::table1_app_specs();
  auto labels = sim::table1_app_labels();
  EXPECT_EQ(specs.size(), 40u);
  EXPECT_EQ(labels.size(), 40u);
  EXPECT_EQ(labels.front(), "n=10");
  // Defaults hold on the alpha sweep rows.
  EXPECT_EQ(specs[5].num_tasks, 50);
  EXPECT_DOUBLE_EQ(specs[5].width, 0.5);
}

TEST(Scenario, SyntheticGridSize) {
  EXPECT_EQ(sim::synthetic_grid().size(), 40u * 4 * 3 * 3);
  EXPECT_EQ(sim::synthetic_grid(2).size(), 2u * 4 * 3 * 3);
  EXPECT_EQ(sim::grid5000_scenarios().size(), 40u);
}

TEST(Scenario, PlatformLogsAreCachedAndStable) {
  const auto& a = sim::platform_log(sim::Platform::kSdscDs);
  const auto& b = sim::platform_log(sim::Platform::kSdscDs);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.cpus, 224);
  EXPECT_EQ(sim::platform_log(sim::Platform::kOscCluster).cpus, 57);
}

TEST(Scenario, MakeInstanceIsDeterministic) {
  sim::ScenarioSpec spec;
  spec.label = "det-test";
  spec.platform = sim::Platform::kSdscDs;
  spec.tagging.phi = 0.2;

  auto a = sim::make_instance(spec, 1, 2, 99);
  auto b = sim::make_instance(spec, 1, 2, 99);
  EXPECT_DOUBLE_EQ(a.now, b.now);
  EXPECT_EQ(a.q_hist, b.q_hist);
  EXPECT_EQ(a.dag.num_edges(), b.dag.num_edges());
  EXPECT_EQ(a.profile.reservation_count(), b.profile.reservation_count());

  // Different indices give different instances.
  auto c = sim::make_instance(spec, 2, 2, 99);
  EXPECT_NE(a.dag.num_edges() * 1000 + a.profile.reservation_count(),
            c.dag.num_edges() * 1000 + c.profile.reservation_count());
}

TEST(Scenario, InstanceIsSchedulable) {
  sim::ScenarioSpec spec;
  spec.label = "sched-test";
  spec.platform = sim::Platform::kSdscDs;
  spec.tagging.phi = 0.5;
  spec.app.num_tasks = 10;
  auto inst = sim::make_instance(spec, 0, 0, 7);
  EXPECT_GE(inst.q_hist, 1);
  EXPECT_LE(inst.q_hist, inst.profile.capacity());
  EXPECT_GT(inst.now, 0.0);
  EXPECT_EQ(inst.dag.size(), 10);
}

TEST(TextTable, AlignsAndValidates) {
  sim::TextTable table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer-name", "2"});
  std::ostringstream os;
  table.print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_THROW(table.add_row({"only-one-cell"}), resched::Error);
}

TEST(TextTable, FormatsDoubles) {
  EXPECT_EQ(sim::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(sim::fmt(2.0, 0), "2");
  EXPECT_EQ(sim::fmt(std::nan(""), 2), "n/a");
}

}  // namespace

namespace {

TEST(ComparisonTable, CsvRendering) {
  sim::ComparisonTable table({"A", "B"}, {"tat"});
  sim::DegradationAggregator agg(2);
  agg.add_instance(std::vector<double>{1.0, 2.0});
  table.add_scenario(std::vector<sim::DegradationAggregator>{agg});
  std::string csv = table.to_csv();
  EXPECT_NE(csv.find("algorithm,tat_deg_pct,tat_wins"), std::string::npos);
  EXPECT_NE(csv.find("A,0,1"), std::string::npos);
  EXPECT_NE(csv.find("B,100,0"), std::string::npos);
}

}  // namespace
