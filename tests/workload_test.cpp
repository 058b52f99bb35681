// Unit tests for src/workload: SWF round-trips, synthetic log calibration,
// phi-tagging, the linear/expo/real decay transforms, log statistics, and
// the windowed tagging and extraction against the full-scan loops they
// replaced (kept here as the oracle).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

#include "src/sim/scenario.hpp"
#include "src/util/error.hpp"
#include "src/workload/stats.hpp"
#include "src/workload/swf.hpp"
#include "src/workload/synth.hpp"
#include "src/workload/tagging.hpp"

namespace {

using namespace resched;
using namespace resched::workload;

constexpr double kDay = 86400.0;

TEST(Swf, ParsesJobsAndHeader) {
  std::istringstream in(
      "; Comment line\n"
      "; MaxProcs: 128\n"
      "\n"
      "1 100 50 3600 16 -1 -1 16 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "2 200 0 1800 4 -1 -1 4 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  Log log = read_swf(in, "test");
  EXPECT_EQ(log.cpus, 128);
  ASSERT_EQ(log.jobs.size(), 2u);
  EXPECT_DOUBLE_EQ(log.jobs[0].submit, 100.0);
  EXPECT_DOUBLE_EQ(log.jobs[0].start, 150.0);
  EXPECT_DOUBLE_EQ(log.jobs[0].runtime, 3600.0);
  EXPECT_EQ(log.jobs[0].procs, 16);
  EXPECT_DOUBLE_EQ(log.duration, 150.0 + 3600.0);
}

TEST(Swf, SkipsInvalidJobsByDefault) {
  std::istringstream in(
      "1 100 0 -1 16 -1 -1 16 -1 -1 0 -1 -1 -1 -1 -1 -1 -1\n"
      "2 200 0 1800 -1 -1 -1 -1 -1 -1 5 -1 -1 -1 -1 -1 -1 -1\n"
      "3 300 0 1800 4 -1 -1 4 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  Log log = read_swf(in, "test");
  EXPECT_EQ(log.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(log.jobs[0].submit, 300.0);
}

TEST(Swf, CpusFallsBackToMaxObserved) {
  std::istringstream in("1 0 0 60 24 -1 -1 24 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  Log log = read_swf(in, "test");
  EXPECT_EQ(log.cpus, 24);
}

TEST(Swf, OverrideWins) {
  std::istringstream in(
      "; MaxProcs: 128\n"
      "1 0 0 60 24 -1 -1 24 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  SwfReadOptions opts;
  opts.cpus_override = 64;
  Log log = read_swf(in, "test", opts);
  EXPECT_EQ(log.cpus, 64);
}

TEST(Swf, StrictMalformedFieldThrows) {
  std::istringstream in("1 banana 0 60 24 -1 -1 24 -1 -1 1 -1 -1 -1 -1 -1\n");
  SwfReadOptions opts;
  opts.strict = true;
  EXPECT_THROW(read_swf(in, "test", opts), resched::Error);
}

TEST(Swf, StrictTooFewFieldsThrows) {
  std::istringstream in("1 2 3\n");
  SwfReadOptions opts;
  opts.strict = true;
  EXPECT_THROW(read_swf(in, "test", opts), resched::Error);
}

TEST(Swf, NonNumericTokenSkipsWithDiagnostic) {
  std::istringstream in(
      "1 banana 0 60 24 -1 -1 24 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "2 100 0 60 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  SwfDiagnostics diag;
  SwfReadOptions opts;
  opts.diagnostics = &diag;
  Log log = read_swf(in, "test", opts);
  ASSERT_EQ(log.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(log.jobs[0].submit, 100.0);
  EXPECT_EQ(diag.malformed_lines, 1);
  ASSERT_EQ(diag.messages.size(), 1u);
  EXPECT_NE(diag.messages[0].find("banana"), std::string::npos);
  EXPECT_NE(diag.messages[0].find("test:1"), std::string::npos);
}

TEST(Swf, TruncatedLineSkipsWithDiagnostic) {
  std::istringstream in(
      "1 2 3\n"
      "2 100 0 60 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  SwfDiagnostics diag;
  SwfReadOptions opts;
  opts.diagnostics = &diag;
  Log log = read_swf(in, "test", opts);
  ASSERT_EQ(log.jobs.size(), 1u);
  EXPECT_EQ(diag.malformed_lines, 1);
  ASSERT_EQ(diag.messages.size(), 1u);
  EXPECT_NE(diag.messages[0].find("truncated"), std::string::npos);
}

TEST(Swf, NegativeRuntimeIsMalformedButUnknownSentinelIsNot) {
  // -5 runtime is garbage (malformed); -1 is SWF's "unknown" and only makes
  // the job invalid (skipped by skip_invalid, not an error).
  std::istringstream in(
      "1 100 0 -5 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "2 100 0 -1 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "3 100 0 60 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  SwfDiagnostics diag;
  SwfReadOptions opts;
  opts.diagnostics = &diag;
  Log log = read_swf(in, "test", opts);
  ASSERT_EQ(log.jobs.size(), 1u);
  EXPECT_EQ(diag.malformed_lines, 1);
  EXPECT_EQ(diag.invalid_jobs, 1);
}

TEST(Swf, NonFiniteValuesSkipWithDiagnostic) {
  std::istringstream in(
      "1 inf 0 60 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "2 100 nan 60 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "3 100 0 60 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  SwfDiagnostics diag;
  SwfReadOptions opts;
  opts.diagnostics = &diag;
  Log log = read_swf(in, "test", opts);
  ASSERT_EQ(log.jobs.size(), 1u);
  EXPECT_EQ(diag.malformed_lines, 2);
}

TEST(Swf, TrailingGarbageInFieldSkipsWithDiagnostic) {
  std::istringstream in(
      "1 100x 0 60 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "2 100 0 60 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  SwfDiagnostics diag;
  SwfReadOptions opts;
  opts.diagnostics = &diag;
  Log log = read_swf(in, "test", opts);
  ASSERT_EQ(log.jobs.size(), 1u);
  EXPECT_EQ(diag.malformed_lines, 1);
}

TEST(Swf, OutOfRangeProcsSkipsWithDiagnostic) {
  std::istringstream in(
      "1 100 0 60 9999999999999 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "2 100 0 60 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  SwfDiagnostics diag;
  SwfReadOptions opts;
  opts.diagnostics = &diag;
  Log log = read_swf(in, "test", opts);
  ASSERT_EQ(log.jobs.size(), 1u);
  EXPECT_EQ(diag.malformed_lines, 1);
  ASSERT_EQ(diag.messages.size(), 1u);
  EXPECT_NE(diag.messages[0].find("out of range"), std::string::npos);
}

TEST(Swf, DiagnosticMessagesAreCappedButCountingContinues) {
  std::ostringstream swf;
  for (int i = 0; i < SwfDiagnostics::kMaxMessages + 10; ++i)
    swf << i << " bad 0 60 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
  std::istringstream in(swf.str());
  SwfDiagnostics diag;
  SwfReadOptions opts;
  opts.diagnostics = &diag;
  Log log = read_swf(in, "test", opts);
  EXPECT_TRUE(log.jobs.empty());
  EXPECT_EQ(diag.malformed_lines, SwfDiagnostics::kMaxMessages + 10);
  EXPECT_EQ(static_cast<int>(diag.messages.size()),
            SwfDiagnostics::kMaxMessages);
}

TEST(Swf, RoundTripPreservesJobs) {
  util::Rng rng(8);
  SyntheticLogSpec spec = sdsc_ds_spec();
  spec.duration_days = 10.0;
  Log original = generate_log(spec, rng);
  ASSERT_GT(original.jobs.size(), 10u);

  std::ostringstream out;
  write_swf(out, original);
  std::istringstream in(out.str());
  Log parsed = read_swf(in, original.name);

  EXPECT_EQ(parsed.cpus, original.cpus);
  ASSERT_EQ(parsed.jobs.size(), original.jobs.size());
  for (std::size_t i = 0; i < parsed.jobs.size(); ++i) {
    EXPECT_NEAR(parsed.jobs[i].submit, original.jobs[i].submit, 1e-6);
    EXPECT_NEAR(parsed.jobs[i].runtime, original.jobs[i].runtime, 1e-6);
    EXPECT_EQ(parsed.jobs[i].procs, original.jobs[i].procs);
  }
}

TEST(Swf, MissingFileThrows) {
  EXPECT_THROW(read_swf_file("/nonexistent/path.swf"), resched::Error);
}

}  // namespace

namespace resched::workload {
// Without a printer gtest shows a spec as its raw bytes, which start with
// the heap address inside `name`. gtest_discover_tests copies that text
// into the ctest test names, so under ASLR they changed on every build.
inline void PrintTo(const SyntheticLogSpec& spec, std::ostream* os) {
  *os << spec.name;
}
}  // namespace resched::workload

namespace {

class SyntheticLogCalibration
    : public ::testing::TestWithParam<SyntheticLogSpec> {};

TEST_P(SyntheticLogCalibration, HitsTargets) {
  SyntheticLogSpec spec = GetParam();
  util::Rng rng(77);
  Log log = generate_log(spec, rng);
  EXPECT_EQ(log.cpus, spec.cpus);
  EXPECT_DOUBLE_EQ(log.duration, spec.duration_days * kDay);
  EXPECT_GT(log.jobs.size(), 100u);
  // Utilization and the Table 3 means within sampling tolerance.
  EXPECT_NEAR(log.utilization(), spec.target_utilization,
              0.25 * spec.target_utilization);
  LogStats stats = compute_log_stats(log);
  EXPECT_NEAR(stats.avg_exec_hours, spec.mean_runtime_hours,
              0.15 * spec.mean_runtime_hours);
  EXPECT_NEAR(stats.avg_wait_hours, spec.mean_wait_hours,
              0.15 * spec.mean_wait_hours);
  // Jobs sorted by submission, sized within the platform.
  for (std::size_t i = 1; i < log.jobs.size(); ++i)
    EXPECT_LE(log.jobs[i - 1].submit, log.jobs[i].submit);
  for (const Job& j : log.jobs) {
    EXPECT_GE(j.procs, 1);
    EXPECT_LE(j.procs, spec.cpus);
    EXPECT_GE(j.start, j.submit);
    EXPECT_GT(j.runtime, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Table2Platforms, SyntheticLogCalibration,
                         ::testing::Values(ctc_sp2_spec(), osc_cluster_spec(),
                                           sdsc_blue_spec(), sdsc_ds_spec(),
                                           grid5000_spec()),
                         [](const auto& param_info) { return param_info.param.name; });

TEST(SyntheticLog, ValidatesSpec) {
  util::Rng rng(1);
  SyntheticLogSpec spec = ctc_sp2_spec();
  spec.target_utilization = 0.0;
  EXPECT_THROW(generate_log(spec, rng), resched::Error);
  spec = ctc_sp2_spec();
  spec.cpus = 0;
  EXPECT_THROW(generate_log(spec, rng), resched::Error);
}

class TaggingByMethod : public ::testing::TestWithParam<DecayMethod> {};

TEST_P(TaggingByMethod, ScheduleIsWellFormed) {
  util::Rng rng(5);
  SyntheticLogSpec log_spec = sdsc_ds_spec();
  log_spec.duration_days = 60.0;
  Log log = generate_log(log_spec, rng);

  TaggingSpec spec;
  spec.phi = 0.2;
  spec.method = GetParam();
  double now = 30.0 * kDay;
  auto schedule = make_reservation_schedule(log, now, spec, rng);

  EXPECT_FALSE(schedule.empty());
  for (const auto& r : schedule) {
    EXPECT_LT(r.start, r.end);
    EXPECT_GE(r.procs, 1);
    EXPECT_GT(r.end, now - spec.history);       // nothing older than history
    EXPECT_LE(r.end, now + spec.horizon + 1.0); // nothing past the horizon
  }
  // Sorted by start time.
  for (std::size_t i = 1; i < schedule.size(); ++i)
    EXPECT_LE(schedule[i - 1].start, schedule[i].start);
}

TEST_P(TaggingByMethod, FutureLoadDecays) {
  util::Rng rng(6);
  SyntheticLogSpec log_spec = sdsc_blue_spec();
  log_spec.duration_days = 60.0;
  Log log = generate_log(log_spec, rng);

  TaggingSpec spec;
  spec.phi = 0.5;
  spec.method = GetParam();
  double now = 30.0 * kDay;
  auto schedule = make_reservation_schedule(log, now, spec, rng);

  // Reservations per day must drop substantially from the first day to the
  // last day of the horizon, whatever the decay method.
  auto count_day = [&](int day) {
    int c = 0;
    for (const auto& r : schedule)
      if (r.start >= now + day * kDay && r.start < now + (day + 1) * kDay) ++c;
    return c;
  };
  int first = count_day(0);
  int last = count_day(6);
  EXPECT_GT(first, 0);
  EXPECT_LT(last, first / 2) << "method "
                             << to_string(spec.method);
}

INSTANTIATE_TEST_SUITE_P(Methods, TaggingByMethod,
                         ::testing::Values(DecayMethod::kLinear,
                                           DecayMethod::kExpo,
                                           DecayMethod::kReal),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

TEST(Tagging, PhiControlsVolume) {
  util::Rng rng(9);
  SyntheticLogSpec log_spec = sdsc_blue_spec();
  log_spec.duration_days = 60.0;
  Log log = generate_log(log_spec, rng);
  double now = 30.0 * kDay;

  auto volume = [&](double phi) {
    TaggingSpec spec;
    spec.phi = phi;
    spec.method = DecayMethod::kReal;
    util::Rng tag_rng(42);
    return make_reservation_schedule(log, now, spec, tag_rng).size();
  };
  auto low = volume(0.1);
  auto high = volume(0.5);
  EXPECT_GT(high, 3 * low);
  EXPECT_LT(high, 8 * low);
}

TEST(Tagging, ValidatesSpec) {
  util::Rng rng(9);
  Log log;
  log.cpus = 4;
  log.duration = 100 * kDay;
  TaggingSpec spec;
  spec.phi = 0.0;
  EXPECT_THROW(make_reservation_schedule(log, 0.0, spec, rng),
               resched::Error);
}

TEST(ExtractReservations, FiltersBySubmitAndAge) {
  Log log;
  log.cpus = 16;
  log.duration = 100 * kDay;
  // submitted before now, running across now -> kept
  log.jobs.push_back({10 * kDay, 29 * kDay, 2 * kDay, 4});
  // submitted after now -> dropped (not yet known)
  log.jobs.push_back({31 * kDay, 32 * kDay, kDay, 4});
  // ancient history -> dropped
  log.jobs.push_back({1 * kDay, 1 * kDay, kDay, 4});
  double now = 30 * kDay;
  auto schedule = extract_reservations(log, now, 7 * kDay);
  ASSERT_EQ(schedule.size(), 1u);
  EXPECT_DOUBLE_EQ(schedule[0].start, 29 * kDay);
}

TEST(RandomScheduleTime, StaysInsideMargins) {
  util::Rng rng(11);
  Log log;
  log.duration = 100 * kDay;
  for (int i = 0; i < 100; ++i) {
    double t = random_schedule_time(log, 10 * kDay, rng);
    EXPECT_GE(t, 10 * kDay);
    EXPECT_LE(t, 90 * kDay);
  }
  Log tiny;
  tiny.duration = 5 * kDay;
  EXPECT_THROW(random_schedule_time(tiny, 10 * kDay, rng), resched::Error);
}

TEST(LogStats, EmptyAndSingleJob) {
  Log log;
  log.name = "empty";
  auto stats = compute_log_stats(log);
  EXPECT_EQ(stats.job_count, 0u);
  EXPECT_EQ(stats.avg_exec_hours, 0.0);

  log.jobs.push_back({0.0, 100.0, 7200.0, 2});
  stats = compute_log_stats(log);
  EXPECT_EQ(stats.job_count, 1u);
  EXPECT_DOUBLE_EQ(stats.avg_exec_hours, 2.0);
  EXPECT_EQ(stats.cv_exec_pct, 0.0);
}

TEST(Utilization, ClosedForm) {
  Log log;
  log.cpus = 10;
  log.duration = 1000.0;
  log.jobs.push_back({0.0, 0.0, 500.0, 4});  // 2000 proc-seconds
  log.jobs.push_back({0.0, 0.0, 300.0, 10}); // 3000 proc-seconds
  EXPECT_DOUBLE_EQ(log.utilization(), 0.5);
}

TEST(Correlation, IdenticalSchedulesCorrelatePerfectly) {
  resv::ReservationList a;
  for (int i = 0; i < 20; ++i)
    a.push_back({i * 3600.0, i * 3600.0 + 1800.0, (i % 5) + 1});
  double corr = reservation_schedule_correlation(a, 0.0, a, 0.0,
                                                 20 * 3600.0, 16, 16);
  EXPECT_NEAR(corr, 1.0, 1e-9);
}

TEST(Correlation, EmptyVsBusyIsZero) {
  resv::ReservationList busy, empty;
  for (int i = 0; i < 20; ++i)
    busy.push_back({i * 3600.0, i * 3600.0 + 1800.0, (i % 5) + 1});
  double corr = reservation_schedule_correlation(busy, 0.0, empty, 0.0,
                                                 20 * 3600.0, 16, 16);
  EXPECT_EQ(corr, 0.0);  // constant series
}

}  // namespace

namespace {

TEST(SyntheticLog, DiurnalModulationShapesArrivals) {
  util::Rng rng(404);
  SyntheticLogSpec spec = sdsc_ds_spec();
  spec.duration_days = 120.0;
  spec.diurnal_amplitude = 0.8;
  Log log = generate_log(spec, rng);

  // Bucket arrivals by hour of day; peak (around hour 6, where sin is
  // maximal) must clearly dominate the trough (around hour 18).
  std::array<int, 24> by_hour{};
  for (const Job& j : log.jobs) {
    auto hour = static_cast<int>(std::fmod(j.submit, kDay) / 3600.0);
    ++by_hour[static_cast<std::size_t>(std::clamp(hour, 0, 23))];
  }
  double peak = by_hour[5] + by_hour[6] + by_hour[7];
  double trough = by_hour[17] + by_hour[18] + by_hour[19];
  EXPECT_GT(peak, 2.0 * trough);
  // Utilization target preserved despite the thinning.
  EXPECT_NEAR(log.utilization(), spec.target_utilization,
              0.25 * spec.target_utilization);
}

TEST(SyntheticLog, ZeroAmplitudeIsStationary) {
  util::Rng rng(405);
  SyntheticLogSpec spec = sdsc_ds_spec();
  spec.duration_days = 120.0;
  spec.diurnal_amplitude = 0.0;
  Log log = generate_log(spec, rng);
  std::array<int, 24> by_hour{};
  for (const Job& j : log.jobs) {
    auto hour = static_cast<int>(std::fmod(j.submit, kDay) / 3600.0);
    ++by_hour[static_cast<std::size_t>(std::clamp(hour, 0, 23))];
  }
  auto [lo, hi] = std::minmax_element(by_hour.begin(), by_hour.end());
  EXPECT_LT(*hi, 2 * *lo);  // no hour dominates
}

TEST(SyntheticLog, RejectsBadAmplitude) {
  util::Rng rng(406);
  SyntheticLogSpec spec = sdsc_ds_spec();
  spec.diurnal_amplitude = 1.0;
  EXPECT_THROW(generate_log(spec, rng), resched::Error);
}

}  // namespace

// --- Windowed tagging against the full-scan loops ----------------------------

namespace oracle {

// make_reservation_schedule and extract_reservations as they were before
// the window search: a coin drawn for every job of the log and every job
// tested against the window. Kept verbatim as the oracle the windowed
// versions must match, reservation for reservation and in the stream they
// leave behind.

constexpr double kDay = 86400.0;

resv::Reservation to_reservation(const Job& job) {
  return {.start = job.start, .end = job.end(), .procs = job.procs};
}

resv::ReservationList reshape(const resv::ReservationList& future, double now,
                              double horizon, util::Rng& rng,
                              double (*target_fraction)(double k,
                                                        double days)) {
  const double days = horizon / kDay;
  const int num_days = std::max(1, static_cast<int>(std::ceil(days)));
  std::vector<resv::ReservationList> by_day(
      static_cast<std::size_t>(num_days));
  for (const auto& r : future) {
    auto day = static_cast<int>((r.start - now) / kDay);
    if (day >= 0 && day < num_days)
      by_day[static_cast<std::size_t>(day)].push_back(r);
  }

  const double base_rate =
      std::max(1.0, static_cast<double>(by_day[0].size()));
  resv::ReservationList out = by_day[0];
  for (int k = 1; k < num_days; ++k) {
    auto& day_list = by_day[static_cast<std::size_t>(k)];
    double target = base_rate * target_fraction(static_cast<double>(k), days);
    auto have = static_cast<double>(day_list.size());
    if (have > target) {
      // Thin: keep each reservation with probability target / have.
      for (const auto& r : day_list)
        if (rng.bernoulli(target / have)) out.push_back(r);
    } else {
      for (const auto& r : day_list) out.push_back(r);
      // Clone jittered copies from this day (or day 0 when empty) to fill.
      const auto& pool = day_list.empty() ? by_day[0] : day_list;
      if (!pool.empty()) {
        auto deficit = static_cast<int>(std::lround(target - have));
        for (int c = 0; c < deficit; ++c) {
          resv::Reservation r = pool[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(pool.size()) - 1))];
          double dur = r.duration();
          r.start = now + k * kDay + rng.uniform(0.0, kDay);
          r.end = r.start + dur;
          out.push_back(r);
        }
      }
    }
  }
  return out;
}

double linear_fraction(double k, double days) {
  return std::max(0.0, 1.0 - (k + 0.5) / days);
}

double expo_fraction(double k, double days) {
  // Time constant days/3: ~5% of the base rate remains at the horizon.
  return std::exp(-3.0 * (k + 0.5) / days);
}

resv::ReservationList make_reservation_schedule(const Log& log, double now,
                                                const TaggingSpec& spec,
                                                util::Rng& rng) {
  RESCHED_CHECK(spec.phi > 0.0 && spec.phi <= 1.0, "phi must be in (0, 1]");
  RESCHED_CHECK(spec.horizon > 0.0 && spec.history >= 0.0,
                "tagging windows must be positive");

  resv::ReservationList past_and_ongoing;
  resv::ReservationList future;
  for (const Job& job : log.jobs) {
    if (!rng.bernoulli(spec.phi)) continue;  // tagging
    if (job.end() <= now - spec.history) continue;
    if (spec.method == DecayMethod::kReal && job.submit > now) continue;
    resv::Reservation r = to_reservation(job);
    if (r.start >= now + spec.horizon) continue;
    r.end = std::min(r.end, now + spec.horizon);
    if (r.start < now)
      past_and_ongoing.push_back(r);
    else
      future.push_back(r);
  }

  resv::ReservationList out = std::move(past_and_ongoing);
  switch (spec.method) {
    case DecayMethod::kReal:
      // The submit-time filter above already shapes the decay.
      out.insert(out.end(), future.begin(), future.end());
      break;
    case DecayMethod::kLinear: {
      auto shaped = reshape(future, now, spec.horizon, rng, linear_fraction);
      out.insert(out.end(), shaped.begin(), shaped.end());
      break;
    }
    case DecayMethod::kExpo: {
      auto shaped = reshape(future, now, spec.horizon, rng, expo_fraction);
      out.insert(out.end(), shaped.begin(), shaped.end());
      break;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const resv::Reservation& a, const resv::Reservation& b) {
              return a.start < b.start;
            });
  return out;
}

resv::ReservationList extract_reservations(const Log& log, double now,
                                           double history) {
  resv::ReservationList out;
  for (const Job& job : log.jobs) {
    if (job.submit > now) continue;        // not yet known at `now`
    if (job.end() <= now - history) continue;  // too old to matter
    out.push_back(to_reservation(job));
  }
  std::sort(out.begin(), out.end(),
            [](const resv::Reservation& a, const resv::Reservation& b) {
              return a.start < b.start;
            });
  return out;
}

}  // namespace oracle

namespace {

/// Empty when both lists hold the same reservations in the same order,
/// else where they first differ.
std::string list_divergence(const resv::ReservationList& got,
                            const resv::ReservationList& want) {
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i)
    if (got[i].start != want[i].start || got[i].end != want[i].end ||
        got[i].procs != want[i].procs)
      return "reservation " + std::to_string(i) + " differs";
  if (got.size() != want.size())
    return "sizes " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
  return "";
}

/// Tags `log` at `now` both ways from the same stream; the lists and the
/// next 16 draws of the caller's stream must agree.
void expect_tagging_matches_oracle(const Log& log, double now,
                                   const TaggingSpec& spec,
                                   std::uint64_t seed) {
  util::Rng got_rng(seed), want_rng(seed);
  const auto got = make_reservation_schedule(log, now, spec, got_rng);
  const auto want = oracle::make_reservation_schedule(log, now, spec, want_rng);
  EXPECT_EQ(list_divergence(got, want), "")
      << log.name << " now " << now << " phi " << spec.phi << " "
      << to_string(spec.method);
  for (int i = 0; i < 16; ++i)
    ASSERT_EQ(got_rng.next_u32(), want_rng.next_u32())
        << log.name << " now " << now << " phi " << spec.phi << " "
        << to_string(spec.method) << " draw " << i;
}

void expect_extraction_matches_oracle(const Log& log, double now,
                                      double history) {
  EXPECT_EQ(list_divergence(extract_reservations(log, now, history),
                            oracle::extract_reservations(log, now, history)),
            "")
      << log.name << " now " << now << " history " << history;
}

// Every platform log, at instants from before the first job to past the
// last (where the window search runs off either end), under each phi kind
// (phi = 1 draws no coins) and each decay method; the Grid'5000 log is
// also extracted whole, as its instances are.
TEST(WindowedTagging, MatchesTheFullScanOnEveryPlatformLog) {
  for (const sim::Platform platform :
       {sim::Platform::kCtcSp2, sim::Platform::kOscCluster,
        sim::Platform::kSdscBlue, sim::Platform::kSdscDs,
        sim::Platform::kGrid5000}) {
    const Log& log = sim::platform_log(platform);
    ASSERT_EQ(log.max_end.size(), log.jobs.size()) << log.name;
    util::Rng pick(util::derive_seed(0x7A6, {static_cast<std::uint64_t>(platform)}));
    const double end = log.duration;
    for (const double now :
         {-kDay, 0.5 * kDay, 3 * kDay, 14 * kDay,
          pick.uniform(14 * kDay, end - 14 * kDay), end - 14 * kDay,
          end - 3 * kDay, end - 0.5 * kDay, end + kDay}) {
      for (const double phi : {0.1, 0.5, 1.0})
        for (const DecayMethod method :
             {DecayMethod::kLinear, DecayMethod::kExpo, DecayMethod::kReal}) {
          TaggingSpec spec;
          spec.phi = phi;
          spec.method = method;
          expect_tagging_matches_oracle(
              log, now, spec,
              util::derive_seed(now > 0 ? static_cast<std::uint64_t>(now) : 1,
                                {static_cast<std::uint64_t>(phi * 10)}));
        }
      expect_extraction_matches_oracle(log, now, 7 * kDay);
    }
  }
}

/// A hand-built, submit-sorted log: a job every two hours for 60 days, and
/// one job submitted on day 1 that runs for `long_days` — far across the
/// history edge of any instant in between.
Log log_with_a_long_job(double long_days) {
  Log log;
  log.name = "long-job";
  log.cpus = 64;
  log.duration = 60 * kDay;
  for (double t = 0.0; t < log.duration; t += 2 * 3600.0) {
    log.jobs.push_back({t, t + 600.0, 3 * 3600.0, 1 + static_cast<int>(t) % 7});
    if (t == kDay) log.jobs.push_back({t, t + 60.0, long_days * kDay, 32});
  }
  log.index_ends();
  return log;
}

TEST(WindowedTagging, KeepsAJobSpanningFarAcrossTheHistoryEdge) {
  const Log log = log_with_a_long_job(40.0);
  for (const double now : {10 * kDay, 30 * kDay, 40 * kDay, 41.5 * kDay}) {
    for (const double phi : {0.1, 0.5, 1.0})
      for (const DecayMethod method :
           {DecayMethod::kLinear, DecayMethod::kExpo, DecayMethod::kReal}) {
        TaggingSpec spec;
        spec.phi = phi;
        spec.method = method;
        expect_tagging_matches_oracle(log, now, spec, 99);
      }
    expect_extraction_matches_oracle(log, now, 7 * kDay);
  }
  // The long job (the only 32-proc one) is the window's first job at
  // 30 days, twenty-two days before the short jobs the window starts with.
  const JobRange range = jobs_in_window(log, 23 * kDay, 30 * kDay);
  EXPECT_EQ(log.jobs[range.first].procs, 32);
  TaggingSpec all;
  all.phi = 1.0;
  util::Rng rng(1);
  const auto schedule = make_reservation_schedule(log, 30 * kDay, all, rng);
  EXPECT_TRUE(std::any_of(schedule.begin(), schedule.end(),
                          [](const resv::Reservation& r) {
                            return r.procs == 32;
                          }));
}

// A log without its running max (hand-built, or its jobs changed count
// since index_ends) is searched whole, and answers as the indexed one.
TEST(WindowedTagging, ALogWithoutItsIndexIsSearchedWhole) {
  const Log indexed = log_with_a_long_job(40.0);
  Log bare = indexed;
  bare.max_end.clear();
  const JobRange whole = jobs_in_window(bare, 23 * kDay, 30 * kDay);
  EXPECT_EQ(whole.first, 0u);
  EXPECT_EQ(whole.last, bare.jobs.size());
  Log grown = indexed;
  grown.jobs.push_back({59.9 * kDay, 59.9 * kDay, 600.0, 1});
  EXPECT_EQ(jobs_in_window(grown, 23 * kDay, 30 * kDay).last,
            grown.jobs.size());

  TaggingSpec spec;
  spec.phi = 0.5;
  util::Rng a(5), b(5);
  EXPECT_EQ(list_divergence(
                make_reservation_schedule(indexed, 30 * kDay, spec, a),
                make_reservation_schedule(bare, 30 * kDay, spec, b)),
            "");
  EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(WindowedTagging, IndexingRefusesAnUnsortedLog) {
  Log unsorted;
  unsorted.jobs.push_back({2 * kDay, 2 * kDay, 600.0, 1});
  unsorted.jobs.push_back({1 * kDay, 1 * kDay, 600.0, 1});
  EXPECT_THROW(unsorted.index_ends(), resched::Error);
  Log early;
  early.jobs.push_back({2 * kDay, kDay, 600.0, 1});  // starts before submit
  EXPECT_THROW(early.index_ends(), resched::Error);
}

// The work behind an instance: at the instants sim::make_instance draws
// (a history plus a horizon from either end), tagging SDSC_BLUE visits at
// most 3% of its jobs, whatever the decay method.
TEST(WindowedTagging, VisitsAtMostThreePercentOfSdscBlue) {
  const Log& log = sim::platform_log(sim::Platform::kSdscBlue);
  const TaggingSpec spec;
  util::Rng rng(0xB1E);
  std::size_t widest = 0;
  for (int i = 0; i < 200; ++i) {
    const double now =
        random_schedule_time(log, spec.history + spec.horizon, rng);
    for (const double submitted_by : {now, now + spec.horizon}) {
      const JobRange range =
          jobs_in_window(log, now - spec.history, submitted_by);
      widest = std::max(widest, range.last - range.first);
    }
  }
  EXPECT_LE(static_cast<double>(widest),
            0.03 * static_cast<double>(log.jobs.size()))
      << widest << " of " << log.jobs.size() << " jobs";
}

}  // namespace
