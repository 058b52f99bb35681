#include "src/workload/tagging.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/util/error.hpp"

namespace resched::workload {

namespace {
constexpr double kDay = 86400.0;

resv::Reservation to_reservation(const Job& job) {
  return {.start = job.start, .end = job.end(), .procs = job.procs};
}

/// Reshapes future reservations so the count per day over [now, now+horizon]
/// follows `target_fraction(k)` (fraction of the day-0 rate in day k >= 1),
/// by thinning over-full days and cloning (with intra-day jitter) under-full
/// ones. Day 0 is the reference and is left untouched.
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

}  // namespace

JobRange jobs_in_window(const Log& log, double ends_after,
                        double submitted_by) {
  const std::size_t n = log.jobs.size();
  if (log.max_end.size() != n) return {0, n};
  // max_end is nondecreasing: the jobs before `first` all ended by
  // ends_after. Jobs are submit-sorted and start no earlier than their
  // submit, so the jobs from `last` on were all submitted, and start,
  // after submitted_by.
  const auto first = static_cast<std::size_t>(
      std::upper_bound(log.max_end.begin(), log.max_end.end(), ends_after) -
      log.max_end.begin());
  const auto submitted_after = [](double t, const Job& job) {
    return t < job.submit;
  };
  const auto last = static_cast<std::size_t>(
      std::upper_bound(log.jobs.begin(), log.jobs.end(), submitted_by,
                       submitted_after) -
      log.jobs.begin());
  return {first, std::max(first, last)};
}

const char* to_string(DecayMethod method) {
  switch (method) {
    case DecayMethod::kLinear: return "linear";
    case DecayMethod::kExpo: return "expo";
    case DecayMethod::kReal: return "real";
  }
  return "?";
}

resv::ReservationList make_reservation_schedule(const Log& log, double now,
                                                const TaggingSpec& spec,
                                                util::Rng& rng) {
  RESCHED_CHECK(spec.phi > 0.0 && spec.phi <= 1.0, "phi must be in (0, 1]");
  RESCHED_CHECK(spec.horizon > 0.0 && spec.history >= 0.0,
                "tagging windows must be positive");

  // Only jobs in `range` can pass the filters below. Every other job's
  // coin is jumped over: bernoulli(phi) draws two words when phi < 1 and
  // none when phi = 1, so the stream reaches reshape() where a coin per
  // job would have left it.
  const JobRange range = jobs_in_window(
      log, now - spec.history,
      spec.method == DecayMethod::kReal ? now : now + spec.horizon);
  const std::uint64_t words_per_coin = spec.phi < 1.0 ? 2 : 0;
  rng.discard(words_per_coin * range.first);

  resv::ReservationList past_and_ongoing;
  resv::ReservationList future;
  for (std::size_t i = range.first; i < range.last; ++i) {
    const Job& job = log.jobs[i];
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
  rng.discard(words_per_coin * (log.jobs.size() - range.last));

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
  const JobRange range = jobs_in_window(log, now - history, now);
  resv::ReservationList out;
  for (std::size_t i = range.first; i < range.last; ++i) {
    const Job& job = log.jobs[i];
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

double random_schedule_time(const Log& log, double margin, util::Rng& rng) {
  RESCHED_CHECK(log.duration > 2.0 * margin,
                "log too short for the requested margin");
  return rng.uniform(margin, log.duration - margin);
}

}  // namespace resched::workload
