// Tests for the RESSCHED algorithms (paper §4): schedule validity for every
// BL x BD combination over randomized instances, allocation-bound
// enforcement, the CPA-equivalence property on empty calendars, and metric
// consistency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>

#include "src/core/algorithms.hpp"
#include "src/core/ressched.hpp"
#include "src/core/schedule.hpp"
#include "src/cpa/cpa.hpp"
#include "src/dag/daggen.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace resched;

resv::AvailabilityProfile random_profile(int p, int n_res, util::Rng& rng) {
  resv::ReservationList list;
  for (int i = 0; i < n_res; ++i) {
    double start = rng.uniform(-12.0, 96.0) * 3600.0;
    double dur = rng.uniform(0.5, 10.0) * 3600.0;
    list.push_back({start, start + dur,
                    static_cast<int>(rng.uniform_int(1, std::max(1, p / 3)))});
  }
  return resv::AvailabilityProfile(p, list);
}

/// The placement loop as it stood before core::earliest_completion, kept
/// verbatim as the reference: every count from the bound down gets an
/// earliest fit until the ready-time bound stops the scan.
core::TaskReservation reference_placement(
    const resv::AvailabilityProfile& profile, const dag::TaskCost& cost,
    int bound, double ready, std::uint64_t& fits) {
  int best_np = -1;
  double best_start = 0.0, best_completion = 0.0;
  for (int np = bound; np >= 1; --np) {
    const double exec = dag::exec_time(cost, np);
    if (best_np > 0 && ready + exec > best_completion) break;
    ++fits;
    const std::optional<double> start = profile.earliest_fit(np, exec, ready);
    if (!start) continue;  // np exceeds momentary capacity
    double completion = *start + exec;
    if (best_np < 0 || completion < best_completion ||
        (completion == best_completion && np < best_np)) {
      best_np = np;
      best_start = *start;
      best_completion = completion;
    }
  }
  return {best_np, best_start, best_completion};
}

void expect_same_placement(const core::TaskReservation& got,
                           const core::TaskReservation& want) {
  EXPECT_EQ(got.procs, want.procs);
  EXPECT_EQ(got.start, want.start);
  EXPECT_EQ(got.finish, want.finish);
}

class ResschedAllCombos
    : public ::testing::TestWithParam<core::NamedRessched> {};

TEST_P(ResschedAllCombos, ProducesValidSchedules) {
  const auto& algo = GetParam();
  util::Rng rng(17);
  for (int trial = 0; trial < 3; ++trial) {
    dag::DagSpec spec;
    spec.num_tasks = 25;
    dag::Dag d = dag::generate(spec, rng);
    const int p = 48;
    auto profile = random_profile(p, 15, rng);
    const double now = 0.0;
    int q = resv::historical_average_available(profile, now, 86400.0);

    auto result = core::schedule_ressched(d, profile, now, q, algo.params);
    auto violation = core::validate_schedule(d, result.schedule, profile, now);
    EXPECT_FALSE(violation.has_value()) << algo.name << ": " << *violation;
    EXPECT_GT(result.turnaround, 0.0);
    EXPECT_GT(result.cpu_hours, 0.0);
    EXPECT_NEAR(result.turnaround, result.schedule.turnaround(now), 1e-9);
    EXPECT_NEAR(result.cpu_hours, result.schedule.cpu_hours(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(TwelveAlgorithms, ResschedAllCombos,
                         ::testing::ValuesIn(core::all_ressched_algorithms()),
                         [](const auto& param_info) { return param_info.param.name; });

TEST(Ressched, RespectsAllocationBounds) {
  util::Rng rng(18);
  dag::DagSpec spec;
  spec.num_tasks = 20;
  dag::Dag d = dag::generate(spec, rng);
  const int p = 64;
  auto profile = random_profile(p, 10, rng);
  int q = resv::historical_average_available(profile, 0.0, 86400.0);

  for (auto bd : {core::BdMethod::kAll, core::BdMethod::kHalf,
                  core::BdMethod::kCpa, core::BdMethod::kCpar}) {
    core::ResschedParams params;
    params.bd = bd;
    auto bounds = core::bd_bounds(d, p, q, bd, params.cpa);
    auto result = core::schedule_ressched(d, profile, 0.0, q, params);
    for (int v = 0; v < d.size(); ++v)
      EXPECT_LE(result.schedule.tasks[static_cast<std::size_t>(v)].procs,
                bounds[static_cast<std::size_t>(v)])
          << core::to_string(bd) << " task " << v;
  }
}

TEST(Ressched, HalfBoundIsHalfThePlatform) {
  util::Rng rng(19);
  dag::Dag d = dag::generate(dag::DagSpec{}, rng);
  auto bounds = core::bd_bounds(d, 64, 32, core::BdMethod::kHalf, {});
  for (int b : bounds) EXPECT_EQ(b, 32);
  // Degenerate single-processor platform still leaves one processor.
  bounds = core::bd_bounds(d, 1, 1, core::BdMethod::kHalf, {});
  for (int b : bounds) EXPECT_EQ(b, 1);
}

TEST(Ressched, BlAllocationVariantsDiffer) {
  util::Rng rng(20);
  dag::Dag d = dag::generate(dag::DagSpec{}, rng);
  auto one = core::bl_allocations(d, 64, 32, core::BlMethod::kOne, {});
  auto all = core::bl_allocations(d, 64, 32, core::BlMethod::kAll, {});
  for (int a : one) EXPECT_EQ(a, 1);
  for (int a : all) EXPECT_EQ(a, 64);
  auto cpa64 = core::bl_allocations(d, 64, 32, core::BlMethod::kCpa, {});
  auto cpa32 = core::bl_allocations(d, 64, 32, core::BlMethod::kCpar, {});
  EXPECT_EQ(cpa64, cpa::allocations(d, 64));
  EXPECT_EQ(cpa32, cpa::allocations(d, 32));
}

TEST(Ressched, EmptyCalendarBlCpaBdCpaMatchesPlainCpa) {
  // Paper §4.2: "if the reservation schedule is empty, then the
  // BL_CPA_BD_CPA algorithm is simply the CPA algorithm."
  util::Rng rng(21);
  for (int trial = 0; trial < 5; ++trial) {
    dag::DagSpec spec;
    spec.num_tasks = 30;
    dag::Dag d = dag::generate(spec, rng);
    const int p = 32;
    resv::AvailabilityProfile empty(p);

    core::ResschedParams params;
    params.bl = core::BlMethod::kCpa;
    params.bd = core::BdMethod::kCpa;
    auto result = core::schedule_ressched(d, empty, 0.0, p, params);
    auto plain = cpa::schedule(d, p, 0.0);

    // Same allocations drive both, and the reservation-based placement can
    // only do at least as well as CPA's non-insertion list mapping.
    EXPECT_LE(result.turnaround, plain.makespan + 1e-6);
    EXPECT_GT(result.turnaround, 0.3 * plain.makespan);
  }
}

TEST(Ressched, EarliestCompletionBeatsNaiveSequential) {
  util::Rng rng(22);
  dag::DagSpec spec;
  spec.num_tasks = 30;
  dag::Dag d = dag::generate(spec, rng);
  resv::AvailabilityProfile empty(64);
  core::ResschedParams params;  // BL_CPAR / BD_CPAR defaults
  auto result = core::schedule_ressched(d, empty, 0.0, 64, params);
  double serial = 0.0;
  for (int v = 0; v < d.size(); ++v) serial += dag::exec_time(d.cost(v), 1);
  EXPECT_LT(result.turnaround, serial);
}

TEST(Ressched, CompetingReservationsDelayTheApplication) {
  util::Rng rng(23);
  dag::DagSpec spec;
  spec.num_tasks = 20;
  dag::Dag d = dag::generate(spec, rng);
  const int p = 16;
  resv::AvailabilityProfile empty(p);
  // A fully-reserved first 24 hours forces everything after it.
  resv::ReservationList block{{0.0, 24 * 3600.0, p}};
  resv::AvailabilityProfile blocked(p, block);

  core::ResschedParams params;
  auto free_result = core::schedule_ressched(d, empty, 0.0, p, params);
  auto blocked_result = core::schedule_ressched(d, blocked, 0.0, p, params);
  EXPECT_GE(blocked_result.turnaround, 24 * 3600.0);
  EXPECT_GT(blocked_result.turnaround, free_result.turnaround);

  // The blocked schedule is still valid against its calendar.
  auto violation =
      core::validate_schedule(d, blocked_result.schedule, blocked, 0.0);
  EXPECT_FALSE(violation.has_value()) << *violation;
}

TEST(Ressched, TasksNeverStartBeforeNow) {
  util::Rng rng(24);
  dag::Dag d = dag::generate(dag::DagSpec{}, rng);
  auto profile = random_profile(32, 10, rng);
  const double now = 12345.0;
  core::ResschedParams params;
  auto result = core::schedule_ressched(
      d, profile, now,
      resv::historical_average_available(profile, now, 86400.0), params);
  for (const auto& t : result.schedule.tasks) EXPECT_GE(t.start, now);
}

TEST(Ressched, RejectsBadQHist) {
  util::Rng rng(25);
  dag::Dag d = dag::generate(dag::DagSpec{}, rng);
  resv::AvailabilityProfile profile(16);
  core::ResschedParams params;
  EXPECT_THROW(core::schedule_ressched(d, profile, 0.0, 0, params),
               resched::Error);
  EXPECT_THROW(core::schedule_ressched(d, profile, 0.0, 17, params),
               resched::Error);
}

TEST(ValidateSchedule, DetectsViolations) {
  util::Rng rng(26);
  dag::DagSpec spec;
  spec.num_tasks = 10;
  dag::Dag d = dag::generate(spec, rng);
  resv::AvailabilityProfile profile(16);
  core::ResschedParams params;
  auto result = core::schedule_ressched(d, profile, 0.0, 16, params);
  ASSERT_FALSE(core::validate_schedule(d, result.schedule, profile, 0.0));

  // Tamper: start a task before its predecessor finishes.
  auto broken = result.schedule;
  int exit_task = d.size() - 1;
  auto& r = broken.tasks[static_cast<std::size_t>(exit_task)];
  double shift = r.start;  // move to time 0, certainly before predecessors
  r.start -= shift;
  r.finish -= shift;
  EXPECT_TRUE(core::validate_schedule(d, broken, profile, 0.0).has_value());

  // Tamper: wrong duration.
  broken = result.schedule;
  broken.tasks[0].finish += 1000.0;
  EXPECT_TRUE(core::validate_schedule(d, broken, profile, 0.0).has_value());

  // Tamper: over-subscription (procs beyond capacity).
  broken = result.schedule;
  broken.tasks[0].procs = 17;
  EXPECT_TRUE(core::validate_schedule(d, broken, profile, 0.0).has_value());

  // Tamper: start before now.
  broken = result.schedule;
  EXPECT_TRUE(
      core::validate_schedule(d, broken, profile, 1e9).has_value());
}

TEST(AlgorithmRegistry, NamesAndSizes) {
  auto all = core::all_ressched_algorithms();
  EXPECT_EQ(all.size(), 12u);
  EXPECT_EQ(all.front().name, "BL_1_BD_ALL");
  EXPECT_EQ(all.back().name, "BL_CPAR_BD_CPAR");
  auto t4 = core::table4_algorithms();
  EXPECT_EQ(t4.size(), 4u);
  for (const auto& a : t4) EXPECT_EQ(a.params.bl, core::BlMethod::kCpar);
}

}  // namespace

// The skipping placement answers bit for bit as the full scan on random
// calendars (oversubscribed stretches included), costs, bounds and ready
// times, some of them on a breakpoint, and never queries more.
TEST(EarliestCompletion, MatchesTheFullScanBitForBit) {
  util::Rng rng(0xE4C0);
  for (int trial = 0; trial < 400; ++trial) {
    const int p = static_cast<int>(rng.uniform_int(1, 300));
    resv::ReservationList list;
    const int n_res = static_cast<int>(rng.uniform_int(0, 40));
    for (int i = 0; i < n_res; ++i) {
      const double start = rng.uniform(-12.0, 96.0) * 3600.0;
      const double dur = rng.uniform(0.01, 30.0) * 3600.0;
      list.push_back({start, start + dur,
                      static_cast<int>(rng.uniform_int(1, p + p / 4))});
    }
    const resv::AvailabilityProfile profile(p, list);
    const std::vector<double> keys = profile.breakpoints();
    for (int task = 0; task < 20; ++task) {
      const dag::TaskCost cost{rng.uniform(1.0, 40.0) * 3600.0,
                               rng.uniform(0.0, 0.3)};
      const int bound = static_cast<int>(rng.uniform_int(1, p));
      double ready = rng.uniform(-12.0, 100.0) * 3600.0;
      if (!keys.empty() && rng.bernoulli(0.3))
        ready = keys[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(keys.size()) - 1))];
      std::uint64_t full_fits = 0;
      const core::TaskReservation want =
          reference_placement(profile, cost, bound, ready, full_fits);
      core::PlacementWork work;
      const core::TaskReservation got =
          core::earliest_completion(profile, cost, bound, ready, work);
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " task "
                                        << task << " bound " << bound);
      expect_same_placement(got, want);
      EXPECT_LE(work.fits, full_fits);
    }
  }
}

// p = 10 with 5 busy until 1000: counts 10..6 first find their processors
// at 1000. After the fit at 10 (done at 1010), one lookup at 9 skips 9..6
// unqueried, and 5 processors at 0 win.
TEST(EarliestCompletion, SkipsARangeWhole) {
  const resv::AvailabilityProfile profile(10,
                                          resv::ReservationList{{0.0, 1000.0, 5}});
  const dag::TaskCost cost{100.0, 0.0};
  EXPECT_EQ(profile.first_free(9, 0.0), (resv::FirstFree{1000.0, 5}));
  std::uint64_t full_fits = 0;
  const core::TaskReservation want =
      reference_placement(profile, cost, 10, 0.0, full_fits);
  core::PlacementWork work;
  const core::TaskReservation got =
      core::earliest_completion(profile, cost, 10, 0.0, work);
  expect_same_placement(got, want);
  EXPECT_EQ(got.procs, 5);
  EXPECT_EQ(got.start, 0.0);
  EXPECT_EQ(full_fits, 6u);   // 10, 9, 8, 7, 6, 5
  EXPECT_EQ(work.fits, 2u);   // 10, 5
  EXPECT_EQ(work.lookups, 2u);  // at 9 (skips 9..6), at 5
}

// 4 processors free from 100 and 3 from 90: 4 finish at 100 + exec(4) and
// 3 at 90 + exec(3), the same instant. The lookup bound at 3 equals the
// incumbent's completion, so 3 must still be queried — and wins the tie
// with fewer processors. A prune on >= would keep 4.
TEST(EarliestCompletion, ATieAtTheIncumbentGoesToTheSmallerCount) {
  const resv::AvailabilityProfile profile(
      4, resv::ReservationList{{0.0, 90.0, 4}, {90.0, 100.0, 1}});
  const dag::TaskCost cost{120.0, 0.0};
  ASSERT_EQ(90.0 + dag::exec_time(cost, 3), 100.0 + dag::exec_time(cost, 4));
  EXPECT_EQ(profile.first_free(3, 0.0), (resv::FirstFree{90.0, 0}));
  std::uint64_t full_fits = 0;
  const core::TaskReservation want =
      reference_placement(profile, cost, 4, 0.0, full_fits);
  core::PlacementWork work;
  const core::TaskReservation got =
      core::earliest_completion(profile, cost, 4, 0.0, work);
  expect_same_placement(got, want);
  EXPECT_EQ(got.procs, 3);
  EXPECT_EQ(got.start, 90.0);
  EXPECT_EQ(work.fits, 2u);  // 4, 3; 2 and 1 skipped on the lookup at 3
}

// Ready mid-way through a stretch with 4 of 8 processors free: the lookup
// at 4 answers `at` = the ready time itself, so the range check equals the
// ready-time bound and 4 is queried and placed at once.
TEST(EarliestCompletion, LookupAtTheReadyTime) {
  const resv::AvailabilityProfile profile(8,
                                          resv::ReservationList{{0.0, 1000.0, 4}});
  const dag::TaskCost cost{800.0, 0.0};
  const double ready = 50.0;
  EXPECT_EQ(profile.first_free(4, ready), (resv::FirstFree{ready, 0}));
  EXPECT_EQ(profile.first_free(5, ready), (resv::FirstFree{1000.0, 4}));
  std::uint64_t full_fits = 0;
  const core::TaskReservation want =
      reference_placement(profile, cost, 8, ready, full_fits);
  core::PlacementWork work;
  const core::TaskReservation got =
      core::earliest_completion(profile, cost, 8, ready, work);
  expect_same_placement(got, want);
  EXPECT_EQ(got.procs, 4);
  EXPECT_EQ(got.start, ready);
  EXPECT_EQ(work.fits, 2u);     // 8, 4
  EXPECT_EQ(work.lookups, 2u);  // at 7 (skips 7..5), at 4 (at = ready)
}
