// Reproduces Table 10: mean algorithm execution time [ms] as the DAG edge
// density varies over 0.1..0.9 (n = 50, Grid'5000 reservation schedules).
//
// Paper's shape: a gentle, monotone increase with density for every
// algorithm, with the DL_RC_* family a constant one-to-two orders of
// magnitude above the BD_* family.
#include <iostream>

#include "bench/bench_common.hpp"

int main() {
  using namespace resched;
  bench::print_header("Table 10 — algorithm execution times vs density");

  auto config = bench::scaled_config(2, 3);
  auto ressched = core::table4_algorithms();
  auto deadline = core::table6_algorithms();
  {
    auto hybrids = core::table7_algorithms();
    deadline.push_back(hybrids[2]);
    deadline.push_back(hybrids[3]);
  }

  std::vector<double> densities = {0.1, 0.3, 0.5, 0.7, 0.9};
  std::vector<sim::TimingResult> by_d;
  for (double d : densities) {
    sim::ScenarioSpec s;
    s.app.density = d;
    s.platform = sim::Platform::kGrid5000;
    s.label = "timing/d=" + sim::fmt(d, 1);
    std::vector<sim::ScenarioSpec> scenarios{s};
    by_d.push_back(sim::run_timing(scenarios, ressched, deadline, config));
  }

  std::vector<std::string> headers{"Algorithm"};
  for (double d : densities) headers.push_back("d=" + sim::fmt(d, 1));
  sim::TextTable table(headers);
  for (std::size_t a = 0; a < by_d.front().names.size(); ++a) {
    std::vector<std::string> row{by_d.front().names[a]};
    for (const auto& r : by_d) row.push_back(bench::timing_cell(r, a));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\nShape check (vs paper Table 10): mild growth with density; "
               "DL_RC_* >> BD_* throughout.\n";
  return 0;
}
