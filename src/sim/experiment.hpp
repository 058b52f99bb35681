// High-level experiment drivers: run algorithm sets over scenario grids and
// aggregate the paper's comparison tables (§4.3, §5.3, §5.4).
#pragma once

#include <cstdint>
#include <span>

#include "src/core/algorithms.hpp"
#include "src/core/tightest_deadline.hpp"
#include "src/sim/metrics.hpp"
#include "src/sim/scenario.hpp"

namespace resched::sim {

struct RunConfig {
  int dag_samples = 4;    ///< DAG instances per scenario (paper: 20)
  int resv_samples = 5;   ///< reservation-schedule instances (paper: 50)
  int threads = 1;
  std::uint64_t seed = 42;
  /// Loose deadline = now + loose_factor * max over algorithms of the
  /// tightest turn-around (paper §5.3's "loose deadline" CPU-hours metric).
  double loose_factor = 1.5;
  core::TightestDeadlineOptions tightest;
};

/// Runs every RESSCHED algorithm in `algos` over each scenario and
/// aggregates turn-around time and CPU-hours (Tables 4 and 5).
ComparisonTable run_ressched_comparison(
    std::span<const ScenarioSpec> scenarios,
    std::span<const core::NamedRessched> algos, const RunConfig& config);

/// §4.3.1 bottom-level study: for every scenario and every bounding method,
/// compares the four BL_* methods by mean turn-around time.
struct BlComparisonResult {
  /// Extremes over (scenario, BD method) cases of the relative turn-around
  /// improvement of each BL method vs BL_1 [%]; improvement > 0 means the
  /// method beats BL_1.
  double min_improvement_pct = 0.0;
  double max_improvement_pct = 0.0;
  /// Fraction of cases in which each BL method (BL_1, BL_ALL, BL_CPA,
  /// BL_CPAR order) achieves the best mean turn-around.
  std::vector<double> best_fraction;
  /// Among cases where BL_CPA or BL_CPAR is best: fraction where BL_CPAR
  /// beats BL_CPA (the paper's "more than two thirds").
  double cpar_beats_cpa_fraction = 0.0;
  int cases = 0;
};
BlComparisonResult run_bl_comparison(std::span<const ScenarioSpec> scenarios,
                                     const RunConfig& config);

/// Deadline study (Tables 6 and 7): per instance, binary-searches each
/// algorithm's tightest deadline, then measures CPU-hours at a loose
/// deadline; aggregates degradation-from-best for both metrics.
ComparisonTable run_deadline_comparison(
    std::span<const ScenarioSpec> scenarios,
    std::span<const core::NamedDeadline> algos, const RunConfig& config);

/// Measures the wall-clock scheduling time [ms] of each algorithm over the
/// given scenarios (Tables 9 and 10). RESSCHED algorithms are timed on
/// schedule_ressched; deadline algorithms on schedule_deadline with a
/// deadline 1.5x the BD_CPAR turn-around (so RC algorithms run their full
/// machinery, guideline computation included). Every instance is built
/// once, then five passes time every (instance, algorithm) pair once each,
/// the algorithms interleaved instance by instance, so that a drift in
/// host speed lands on every algorithm alike. Each pass gives one sample
/// per algorithm, its mean time per call over the instances; the result is
/// the median of the five samples with their quartiles.
struct TimingResult {
  std::vector<std::string> names;
  std::vector<double> median_ms;
  std::vector<double> q1_ms;
  std::vector<double> q3_ms;
};
TimingResult run_timing(std::span<const ScenarioSpec> scenarios,
                        std::span<const core::NamedRessched> ressched,
                        std::span<const core::NamedDeadline> deadline,
                        const RunConfig& config);

}  // namespace resched::sim
