// perfbench's Table-4 sweep cells (perfbench/perfbench.cpp's
// make_sweep_cells): one scenario instance per application spec and
// batch-log platform, the grid point (phi x decay method) and instance
// indices drawn from the seed. Shared by the pins (pin_test) and the CPA
// oracle (cpa_test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/scenario.hpp"
#include "src/util/rng.hpp"

namespace resched::sweep_cells {

inline constexpr int kPlatforms = 4;
inline constexpr int kGridPerPlatform = 9;

/// Every `stride`-th of perfbench's sweep cells for `seed` (160 cells at
/// stride 1).
inline std::vector<sim::Instance> sweep_cells(std::uint64_t seed,
                                              std::size_t stride = 1) {
  const std::vector<sim::ScenarioSpec> grid = sim::synthetic_grid();
  const auto apps = grid.size() / (kPlatforms * kGridPerPlatform);
  util::Rng rng(util::derive_seed(seed, {0x5EE9}));
  std::vector<sim::Instance> cells;
  std::size_t drawn = 0;
  for (std::size_t a = 0; a < apps; ++a)
    for (int p = 0; p < kPlatforms; ++p) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, kGridPerPlatform - 1));
      const sim::ScenarioSpec& scenario =
          grid[(a * kPlatforms + static_cast<std::size_t>(p)) *
                   kGridPerPlatform +
               k];
      const auto dag_idx = static_cast<int>(rng.uniform_int(0, 19));
      const auto resv_idx = static_cast<int>(rng.uniform_int(0, 49));
      if (drawn++ % stride == 0)
        cells.push_back(sim::make_instance(scenario, dag_idx, resv_idx, seed));
    }
  return cells;
}

}  // namespace resched::sweep_cells
