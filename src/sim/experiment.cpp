#include "src/sim/experiment.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>

#include "src/obs/obs.hpp"
#include "src/util/error.hpp"
#include "src/util/worker_pool.hpp"

namespace resched::sim {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// run_timing's passes: with five, the quartiles are the second and fourth
// order statistics.
constexpr int kTimingPasses = 5;

int instances_of(const RunConfig& config) {
  RESCHED_CHECK(config.dag_samples >= 1 && config.resv_samples >= 1,
                "need at least one instance per scenario");
  return config.dag_samples * config.resv_samples;
}

}  // namespace

ComparisonTable run_ressched_comparison(
    std::span<const ScenarioSpec> scenarios,
    std::span<const core::NamedRessched> algos, const RunConfig& config) {
  std::vector<std::string> names;
  for (const auto& a : algos) names.push_back(a.name);
  ComparisonTable table(names, {"turnaround", "cpu_hours"});

  const int per_scenario = instances_of(config);
  util::WorkerPool pool(config.threads);
  for (const ScenarioSpec& scenario : scenarios) {
    // values[instance][metric][algo]
    std::vector<std::array<std::vector<double>, 2>> values(
        static_cast<std::size_t>(per_scenario));
    pool.run(per_scenario, [&](int i) {
      OBS_PHASE("sim.cell");
      int dag_idx = i / config.resv_samples;
      int resv_idx = i % config.resv_samples;
      Instance inst = make_instance(scenario, dag_idx, resv_idx, config.seed);
      auto& cell = values[static_cast<std::size_t>(i)];
      for (const auto& algo : algos) {
        auto result = core::schedule_ressched(inst.dag, inst.profile, inst.now,
                                              inst.q_hist, algo.params);
        cell[0].push_back(result.turnaround);
        cell[1].push_back(result.cpu_hours);
      }
    });

    std::array<DegradationAggregator, 2> agg{
        DegradationAggregator(static_cast<int>(algos.size())),
        DegradationAggregator(static_cast<int>(algos.size()))};
    for (const auto& cell : values) {
      agg[0].add_instance(cell[0]);
      agg[1].add_instance(cell[1]);
    }
    table.add_scenario(agg);
  }
  return table;
}

BlComparisonResult run_bl_comparison(std::span<const ScenarioSpec> scenarios,
                                     const RunConfig& config) {
  constexpr std::array<core::BlMethod, 4> kBl = {
      core::BlMethod::kOne, core::BlMethod::kAll, core::BlMethod::kCpa,
      core::BlMethod::kCpar};
  constexpr std::array<core::BdMethod, 3> kBd = {
      core::BdMethod::kAll, core::BdMethod::kCpa, core::BdMethod::kCpar};

  BlComparisonResult out;
  out.best_fraction.assign(kBl.size(), 0.0);
  out.min_improvement_pct = std::numeric_limits<double>::infinity();
  out.max_improvement_pct = -std::numeric_limits<double>::infinity();
  int cpa_family_best = 0, cpar_better = 0;

  const int per_scenario = instances_of(config);
  util::WorkerPool pool(config.threads);
  for (const ScenarioSpec& scenario : scenarios) {
    // mean_tat[bd][bl] accumulated over instances
    std::vector<std::array<std::array<double, 4>, 3>> values(
        static_cast<std::size_t>(per_scenario));
    pool.run(per_scenario, [&](int i) {
      OBS_PHASE("sim.cell");
      int dag_idx = i / config.resv_samples;
      int resv_idx = i % config.resv_samples;
      Instance inst = make_instance(scenario, dag_idx, resv_idx, config.seed);
      for (std::size_t b = 0; b < kBd.size(); ++b) {
        for (std::size_t l = 0; l < kBl.size(); ++l) {
          core::ResschedParams params;
          params.bl = kBl[l];
          params.bd = kBd[b];
          values[static_cast<std::size_t>(i)][b][l] =
              core::schedule_ressched(inst.dag, inst.profile, inst.now,
                                      inst.q_hist, params)
                  .turnaround;
        }
      }
    });

    for (std::size_t b = 0; b < kBd.size(); ++b) {
      std::array<double, 4> mean{};
      for (const auto& v : values)
        for (std::size_t l = 0; l < kBl.size(); ++l) mean[l] += v[b][l];
      for (auto& m : mean) m /= static_cast<double>(per_scenario);

      for (std::size_t l = 1; l < kBl.size(); ++l) {
        double improvement = 100.0 * (mean[0] - mean[l]) / mean[0];
        out.min_improvement_pct =
            std::min(out.min_improvement_pct, improvement);
        out.max_improvement_pct =
            std::max(out.max_improvement_pct, improvement);
      }
      std::size_t best =
          static_cast<std::size_t>(std::min_element(mean.begin(), mean.end()) -
                                   mean.begin());
      out.best_fraction[best] += 1.0;
      if (best == 2 || best == 3) {
        ++cpa_family_best;
        if (mean[3] <= mean[2]) ++cpar_better;
      }
      ++out.cases;
    }
  }
  for (auto& f : out.best_fraction) f /= std::max(1, out.cases);
  out.cpar_beats_cpa_fraction =
      cpa_family_best > 0
          ? static_cast<double>(cpar_better) / cpa_family_best
          : 0.0;
  return out;
}

ComparisonTable run_deadline_comparison(
    std::span<const ScenarioSpec> scenarios,
    std::span<const core::NamedDeadline> algos, const RunConfig& config) {
  std::vector<std::string> names;
  for (const auto& a : algos) names.push_back(a.name);
  ComparisonTable table(names, {"tightest_deadline", "loose_cpu_hours"});

  const int per_scenario = instances_of(config);
  util::WorkerPool pool(config.threads);
  for (const ScenarioSpec& scenario : scenarios) {
    std::vector<std::array<std::vector<double>, 2>> values(
        static_cast<std::size_t>(per_scenario));
    pool.run(per_scenario, [&](int i) {
      OBS_PHASE("sim.cell");
      int dag_idx = i / config.resv_samples;
      int resv_idx = i % config.resv_samples;
      Instance inst = make_instance(scenario, dag_idx, resv_idx, config.seed);
      auto& cell = values[static_cast<std::size_t>(i)];

      // Metric 1: tightest deadline (duration from now).
      std::vector<double> tightest;
      for (const auto& algo : algos) {
        auto res = core::tightest_deadline(inst.dag, inst.profile, inst.now,
                                           inst.q_hist, algo.params,
                                           config.tightest);
        tightest.push_back(res.at_deadline.feasible ? res.deadline - inst.now
                                                    : kNan);
      }
      cell[0] = tightest;

      // Metric 2: CPU-hours at a loose deadline derived from the *loosest*
      // tightest deadline across algorithms (paper §5.3).
      double loosest = 0.0;
      for (double t : tightest)
        if (!std::isnan(t)) loosest = std::max(loosest, t);
      if (loosest <= 0.0) {
        cell[1].assign(algos.size(), kNan);
        return;
      }
      double k_loose = inst.now + config.loose_factor * loosest;
      for (const auto& algo : algos) {
        auto res = core::schedule_deadline(inst.dag, inst.profile, inst.now,
                                           inst.q_hist, k_loose, algo.params);
        cell[1].push_back(res.feasible ? res.cpu_hours : kNan);
      }
    });

    std::array<DegradationAggregator, 2> agg{
        DegradationAggregator(static_cast<int>(algos.size())),
        DegradationAggregator(static_cast<int>(algos.size()))};
    for (const auto& cell : values) {
      agg[0].add_instance(cell[0]);
      agg[1].add_instance(cell[1]);
    }
    table.add_scenario(agg);
  }
  return table;
}

TimingResult run_timing(std::span<const ScenarioSpec> scenarios,
                        std::span<const core::NamedRessched> ressched,
                        std::span<const core::NamedDeadline> deadline,
                        const RunConfig& config) {
  TimingResult out;
  for (const auto& a : ressched) out.names.push_back(a.name);
  for (const auto& a : deadline) out.names.push_back(a.name);

  // Each instance with its deadline: moderately loose, so RC algorithms
  // exercise their full (guideline-driven) machinery without exhausting
  // the λ ladder.
  std::vector<Instance> instances;
  std::vector<double> deadlines;
  const int per_scenario = instances_of(config);
  for (const ScenarioSpec& scenario : scenarios)
    for (int i = 0; i < per_scenario; ++i) {
      Instance inst = make_instance(scenario, i / config.resv_samples,
                                    i % config.resv_samples, config.seed);
      deadlines.push_back(
          inst.now + 1.5 * core::schedule_ressched(inst.dag, inst.profile,
                                                   inst.now, inst.q_hist,
                                                   core::ResschedParams{})
                               .turnaround);
      instances.push_back(std::move(inst));
    }

  // Timing is inherently serial-sensitive; run every call sequentially.
  using Clock = std::chrono::steady_clock;
  auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };
  std::vector<std::vector<double>> pass_ms(
      out.names.size(), std::vector<double>(kTimingPasses, 0.0));
  for (int pass = 0; pass < kTimingPasses; ++pass)
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const Instance& inst = instances[i];
      std::size_t col = 0;
      for (const auto& algo : ressched) {
        const auto t0 = Clock::now();
        core::schedule_ressched(inst.dag, inst.profile, inst.now, inst.q_hist,
                                algo.params);
        pass_ms[col++][static_cast<std::size_t>(pass)] += ms_since(t0);
      }
      for (const auto& algo : deadline) {
        const auto t0 = Clock::now();
        core::schedule_deadline(inst.dag, inst.profile, inst.now, inst.q_hist,
                                deadlines[i], algo.params);
        pass_ms[col++][static_cast<std::size_t>(pass)] += ms_since(t0);
      }
    }

  const auto calls =
      static_cast<double>(std::max<std::size_t>(1, instances.size()));
  for (std::vector<double>& samples : pass_ms) {
    for (double& ms : samples) ms /= calls;
    std::sort(samples.begin(), samples.end());
    out.q1_ms.push_back(samples[1]);
    out.median_ms.push_back(samples[2]);
    out.q3_ms.push_back(samples[3]);
  }
  return out;
}

}  // namespace resched::sim
