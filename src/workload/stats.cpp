#include "src/workload/stats.hpp"

#include <algorithm>
#include <limits>

#include "src/resv/profile.hpp"
#include "src/util/error.hpp"
#include "src/util/stats.hpp"

namespace resched::workload {

namespace {
constexpr double kHour = 3600.0;

/// CV (in percent) of consecutive-batch means of `values`.
double batch_cv_pct(const std::vector<double>& values, int num_batches) {
  if (values.size() < 2) return 0.0;
  int batches = std::min<int>(num_batches, static_cast<int>(values.size()));
  util::Accumulator of_means;
  std::size_t per = values.size() / static_cast<std::size_t>(batches);
  for (int b = 0; b < batches; ++b) {
    util::Accumulator batch;
    std::size_t begin = static_cast<std::size_t>(b) * per;
    std::size_t end = (b == batches - 1) ? values.size() : begin + per;
    for (std::size_t i = begin; i < end; ++i) batch.add(values[i]);
    if (!batch.empty()) of_means.add(batch.mean());
  }
  return 100.0 * of_means.cv();
}
}  // namespace

double Log::utilization() const {
  if (duration <= 0.0 || cpus <= 0) return 0.0;
  double area = 0.0;
  for (const Job& j : jobs) area += static_cast<double>(j.procs) * j.runtime;
  return area / (static_cast<double>(cpus) * duration);
}

void Log::index_ends() {
  max_end.clear();
  max_end.reserve(jobs.size());
  double latest = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    RESCHED_CHECK(i == 0 || jobs[i - 1].submit <= j.submit,
                  "log jobs must be sorted by submit time");
    RESCHED_CHECK(j.start >= j.submit, "log job starts before its submit");
    latest = std::max(latest, j.end());
    max_end.push_back(latest);
  }
}

LogStats compute_log_stats(const Log& log, int num_batches) {
  RESCHED_CHECK(num_batches >= 1, "need at least one batch");
  LogStats stats;
  stats.name = log.name;
  stats.job_count = log.jobs.size();
  if (log.jobs.empty()) return stats;

  std::vector<double> exec_hours, wait_hours;
  exec_hours.reserve(log.jobs.size());
  wait_hours.reserve(log.jobs.size());
  for (const Job& j : log.jobs) {
    exec_hours.push_back(j.runtime / kHour);
    wait_hours.push_back(j.wait() / kHour);
  }
  stats.avg_exec_hours = util::mean(exec_hours);
  stats.avg_wait_hours = util::mean(wait_hours);
  stats.cv_exec_pct = batch_cv_pct(exec_hours, num_batches);
  stats.cv_wait_pct = batch_cv_pct(wait_hours, num_batches);
  return stats;
}

double reservation_schedule_correlation(const resv::ReservationList& a,
                                        double now_a,
                                        const resv::ReservationList& b,
                                        double now_b, double horizon,
                                        int capacity_a, int capacity_b,
                                        int samples) {
  RESCHED_CHECK(samples >= 2, "need at least two samples");
  RESCHED_CHECK(horizon > 0.0, "horizon must be positive");
  resv::AvailabilityProfile pa(capacity_a, a);
  resv::AvailabilityProfile pb(capacity_b, b);
  double step = horizon / samples;
  // Compare *reserved fractions* so platforms of different sizes align.
  std::vector<double> ra, rb;
  ra.reserve(static_cast<std::size_t>(samples));
  rb.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    double ta = now_a + (static_cast<double>(i) + 0.5) * step;
    double tb = now_b + (static_cast<double>(i) + 0.5) * step;
    ra.push_back(1.0 - static_cast<double>(pa.available_at(ta)) / capacity_a);
    rb.push_back(1.0 - static_cast<double>(pb.available_at(tb)) / capacity_b);
  }
  return util::pearson(ra, rb);
}

}  // namespace resched::workload
