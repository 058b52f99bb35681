// Reproduces Table 9: mean algorithm execution time [ms] as the task count
// n varies (Grid'5000 reservation schedules, all other Table 1 parameters
// at defaults).
//
// Paper's shape (absolute values differ — different CPU, see DESIGN.md
// substitution 5): BD_* algorithms in the low milliseconds; DL_BD_* the
// same; DL_RC_* slower by roughly 10-90x because they recompute a CPA
// guideline schedule per task; everything grows superlinearly with n.
#include <iostream>

#include "bench/bench_common.hpp"

int main() {
  using namespace resched;
  bench::print_header("Table 9 — algorithm execution times vs n");

  auto config = bench::scaled_config(2, 3);
  auto ressched = core::table4_algorithms();  // BD_ALL/HALF/CPA/CPAR
  auto deadline = core::table6_algorithms();
  {
    auto hybrids = core::table7_algorithms();
    deadline.push_back(hybrids[2]);  // DL_RC_CPAR-lambda
    deadline.push_back(hybrids[3]);  // DL_RCBD_CPAR-lambda
  }

  std::vector<int> task_counts = {10, 25, 50, 75, 100};
  std::vector<sim::TimingResult> by_n;
  for (int n : task_counts) {
    sim::ScenarioSpec s;
    s.app.num_tasks = n;
    s.platform = sim::Platform::kGrid5000;
    s.label = "timing/n=" + std::to_string(n);
    std::vector<sim::ScenarioSpec> scenarios{s};
    by_n.push_back(sim::run_timing(scenarios, ressched, deadline, config));
  }

  std::vector<std::string> headers{"Algorithm"};
  for (int n : task_counts) headers.push_back("n=" + std::to_string(n));
  sim::TextTable table(headers);
  for (std::size_t a = 0; a < by_n.front().names.size(); ++a) {
    std::vector<std::string> row{by_n.front().names[a]};
    for (const auto& r : by_n) row.push_back(bench::timing_cell(r, a));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\nShape check (vs paper Table 9): times grow with n; the "
               "DL_RC_* family is one to two orders of magnitude slower than "
               "the BD_* family.\n";
  return 0;
}
