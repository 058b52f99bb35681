// Shared configuration for the table-reproduction benches.
//
// Every bench prints the paper's reported numbers next to the measured
// ones. Defaults are laptop-sized; RESCHED_SCALE (float, default 1)
// multiplies instance counts and scenario coverage toward the paper's full
// grid, and RESCHED_THREADS sets experiment parallelism.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/sim/experiment.hpp"
#include "src/sim/scenario.hpp"
#include "src/sim/table.hpp"
#include "src/util/env.hpp"

namespace resched::bench {

inline sim::RunConfig scaled_config(int base_dags, int base_resvs) {
  double s = util::bench_scale();
  sim::RunConfig config;
  config.dag_samples = std::max(1, static_cast<int>(std::lround(base_dags * s)));
  config.resv_samples =
      std::max(1, static_cast<int>(std::lround(base_resvs * s)));
  config.threads = util::bench_threads();
  return config;
}

/// Keeps every `stride`-th scenario — coverage across the grid's axes
/// without the full cross product.
inline std::vector<sim::ScenarioSpec> strided(
    std::vector<sim::ScenarioSpec> grid, int stride) {
  if (stride <= 1) return grid;
  std::vector<sim::ScenarioSpec> out;
  for (std::size_t i = 0; i < grid.size(); i += static_cast<std::size_t>(stride))
    out.push_back(std::move(grid[i]));
  return out;
}

/// Grid stride shrinks as RESCHED_SCALE grows (stride 1 at scale >= base).
inline int scaled_stride(int base_stride) {
  double s = util::bench_scale();
  return std::max(1, static_cast<int>(std::lround(base_stride / s)));
}

/// One timing cell of Tables 9 and 10: algorithm `a`'s median time per
/// call [ms] over sim::run_timing's passes, with its quartiles, as
/// `median [q1, q3]`.
inline std::string timing_cell(const sim::TimingResult& r, std::size_t a) {
  return sim::fmt(r.median_ms[a], 3) + " [" + sim::fmt(r.q1_ms[a], 3) + ", " +
         sim::fmt(r.q3_ms[a], 3) + "]";
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("(RESCHED_SCALE=%.2f, RESCHED_THREADS=%d)\n",
              util::bench_scale(), util::bench_threads());
}

}  // namespace resched::bench
