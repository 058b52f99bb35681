#include "src/workload/synth.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "src/util/error.hpp"

namespace resched::workload {

namespace {
constexpr double kHour = 3600.0;
constexpr double kDay = 86400.0;

/// Lognormal (mu, sigma) matching a target mean and coefficient of variation.
struct LognormalParams {
  double mu;
  double sigma;
};
LognormalParams lognormal_for(double mean, double cv) {
  double sigma2 = std::log1p(cv * cv);
  return {std::log(mean) - 0.5 * sigma2, std::sqrt(sigma2)};
}

/// E[2^u] for u ~ U(0, b).
double mean_pow2_uniform(double b) {
  if (b <= 0.0) return 1.0;
  return (std::exp2(b) - 1.0) / (b * std::numbers::ln2);
}
}  // namespace

SyntheticLogSpec ctc_sp2_spec() {
  return {.name = "CTC_SP2", .cpus = 430, .duration_days = 11 * 30.0,
          .target_utilization = 0.658, .mean_runtime_hours = 3.20,
          .runtime_cv = 1.8, .mean_wait_hours = 7.49, .max_job_fraction = 0.5};
}

SyntheticLogSpec osc_cluster_spec() {
  return {.name = "OSC_Cluster", .cpus = 57, .duration_days = 22 * 30.0,
          .target_utilization = 0.385, .mean_runtime_hours = 9.33,
          .runtime_cv = 2.2, .mean_wait_hours = 3.02, .max_job_fraction = 0.6};
}

SyntheticLogSpec sdsc_blue_spec() {
  return {.name = "SDSC_BLUE", .cpus = 1152, .duration_days = 32 * 30.0,
          .target_utilization = 0.757, .mean_runtime_hours = 1.18,
          .runtime_cv = 1.6, .mean_wait_hours = 8.90, .max_job_fraction = 0.5};
}

SyntheticLogSpec sdsc_ds_spec() {
  return {.name = "SDSC_DS", .cpus = 224, .duration_days = 13 * 30.0,
          .target_utilization = 0.273, .mean_runtime_hours = 1.52,
          .runtime_cv = 2.0, .mean_wait_hours = 4.41, .max_job_fraction = 0.5};
}

std::array<SyntheticLogSpec, 4> table2_specs() {
  return {ctc_sp2_spec(), osc_cluster_spec(), sdsc_blue_spec(),
          sdsc_ds_spec()};
}

SyntheticLogSpec grid5000_spec() {
  return {.name = "Grid5000", .cpus = 1024, .duration_days = 2.5 * 365.0,
          .target_utilization = 0.40, .mean_runtime_hours = 1.84,
          .runtime_cv = 1.7, .mean_wait_hours = 3.24, .max_job_fraction = 0.4};
}

Log generate_log(const SyntheticLogSpec& spec, util::Rng& rng) {
  RESCHED_CHECK(spec.cpus >= 1, "log spec needs at least one CPU");
  RESCHED_CHECK(spec.duration_days > 0.0, "log spec needs positive duration");
  RESCHED_CHECK(spec.target_utilization > 0.0 &&
                    spec.target_utilization <= 1.0,
                "target utilization must be in (0, 1]");
  RESCHED_CHECK(spec.mean_runtime_hours > 0.0 && spec.runtime_cv >= 0.0 &&
                    spec.mean_wait_hours >= 0.0,
                "log spec distribution parameters must be non-negative");
  RESCHED_CHECK(spec.max_job_fraction > 0.0 && spec.max_job_fraction <= 1.0,
                "max_job_fraction must be in (0, 1]");
  RESCHED_CHECK(spec.diurnal_amplitude >= 0.0 && spec.diurnal_amplitude < 1.0,
                "diurnal_amplitude must be in [0, 1)");

  Log log;
  log.name = spec.name;
  log.cpus = spec.cpus;
  log.duration = spec.duration_days * kDay;

  const double mean_runtime = spec.mean_runtime_hours * kHour;
  const auto runtime_params = lognormal_for(mean_runtime, spec.runtime_cv);
  const double size_exp_max =
      std::max(0.0, std::log2(spec.max_job_fraction *
                              static_cast<double>(spec.cpus)));
  const double mean_procs = mean_pow2_uniform(size_exp_max);

  // Poisson arrival rate from the utilization identity
  //   util = rate * E[procs] * E[runtime] / cpus.
  const double rate = spec.target_utilization *
                      static_cast<double>(spec.cpus) /
                      (mean_procs * mean_runtime);
  // Diurnal modulation by thinning a homogeneous process at the peak rate:
  // lambda(t) = rate * (1 + A sin(2 pi t / day)), accepted with probability
  // lambda(t) / (rate * (1 + A)). The time-average rate stays `rate`, so
  // the utilization target is preserved.
  const double amplitude = spec.diurnal_amplitude;
  const double peak_rate = rate * (1.0 + amplitude);
  const double mean_interarrival = 1.0 / peak_rate;

  double t = rng.exponential(mean_interarrival);
  while (t < log.duration) {
    double accept = (1.0 + amplitude * std::sin(2.0 * std::numbers::pi * t /
                                                kDay)) /
                    (1.0 + amplitude);
    if (!rng.bernoulli(accept)) {
      t += rng.exponential(mean_interarrival);
      continue;
    }
    Job job;
    job.submit = t;
    job.start = t + rng.exponential(std::max(1.0, spec.mean_wait_hours * kHour));
    job.runtime =
        std::max(60.0, rng.lognormal(runtime_params.mu, runtime_params.sigma));
    int procs = static_cast<int>(
        std::lround(std::exp2(rng.uniform(0.0, size_exp_max))));
    job.procs = std::clamp(procs, 1, spec.cpus);
    log.jobs.push_back(job);
    t += rng.exponential(mean_interarrival);
  }
  log.index_ends();
  return log;
}

}  // namespace resched::workload
