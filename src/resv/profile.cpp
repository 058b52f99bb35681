#include "src/resv/profile.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/obs/obs.hpp"
#include "src/util/error.hpp"

namespace resched::resv {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kPosInf = std::numeric_limits<double>::infinity();
}  // namespace

AvailabilityProfile::AvailabilityProfile(int capacity)
    : index_(capacity), capacity_(capacity) {
  RESCHED_CHECK(capacity >= 1, "platform needs at least one processor");
}

AvailabilityProfile::AvailabilityProfile(
    int capacity, std::span<const Reservation> reservations)
    : AvailabilityProfile(capacity) {
  for (const Reservation& r : reservations) add(r);
}

void AvailabilityProfile::add(const Reservation& r) {
  RESCHED_CHECK(r.procs >= 0, "reservation processor count must be >= 0");
  RESCHED_CHECK(r.start < r.end, "reservation must have positive duration");
  if (r.procs == 0) return;
  index_.range_add(r.start, r.end, -r.procs);
  ++reservation_count_;
}

void AvailabilityProfile::release(const Reservation& r) {
  RESCHED_CHECK(r.procs >= 0, "reservation processor count must be >= 0");
  RESCHED_CHECK(r.start < r.end, "reservation must have positive duration");
  if (r.procs == 0) return;
  index_.range_add(r.start, r.end, r.procs);
  // Drop breakpoints made redundant so the structure converges to what a
  // from-scratch build without r produces.
  index_.coalesce_at(r.end);
  index_.coalesce_at(r.start);
  --reservation_count_;
}

AvailabilityProfile::CommitToken AvailabilityProfile::commit(
    std::span<const Reservation> rs) {
  // Validate the whole group before touching the calendar: add() throws on
  // malformed reservations, and a throw after a partial commit would leak
  // the already-added ones (no token reaches the caller to roll back).
  // Checking up front gives the strong guarantee — either every
  // reservation is committed or the profile is untouched.
  for (const Reservation& r : rs) {
    RESCHED_CHECK(r.procs >= 0,
                  "commit group holds a reservation with negative procs");
    RESCHED_CHECK(r.start < r.end,
                  "commit group holds a reservation without positive "
                  "duration");
  }
  CommitToken token;
  token.reservations_.reserve(rs.size());
  for (const Reservation& r : rs) {
    add(r);
    token.reservations_.push_back(r);
  }
  return token;
}

void AvailabilityProfile::rollback(CommitToken& token) {
  for (auto it = token.reservations_.rbegin(); it != token.reservations_.rend();
       ++it)
    release(*it);
  token.reservations_.clear();
}

void AvailabilityProfile::compact(double horizon) {
  index_.compact(horizon);
}

int AvailabilityProfile::available_at(double t) const {
  return std::clamp(index_.value_at(t), 0, capacity_);
}

std::optional<double> AvailabilityProfile::earliest_fit(
    int procs, double duration, double not_before) const {
  RESCHED_CHECK(procs >= 1, "fit query needs at least one processor");
  RESCHED_CHECK(duration > 0.0, "fit query needs positive duration");
  OBS_COUNT("resv.fit.earliest", 1);
  if (procs > capacity_) return std::nullopt;
  auto fit = index_.earliest_fit(procs, duration, not_before);
  RESCHED_ASSERT(fit.has_value(),
                 "profile tail must be feasible for procs <= capacity");
  return fit;
}

std::optional<double> AvailabilityProfile::latest_fit(int procs,
                                                      double duration,
                                                      double deadline,
                                                      double not_before) const {
  RESCHED_CHECK(procs >= 1, "fit query needs at least one processor");
  RESCHED_CHECK(duration > 0.0, "fit query needs positive duration");
  OBS_COUNT("resv.fit.latest", 1);
  if (procs > capacity_) return std::nullopt;
  if (deadline - duration < not_before) return std::nullopt;
  return index_.latest_fit(procs, duration, deadline, not_before);
}

std::vector<std::optional<double>> AvailabilityProfile::fit_many(
    std::span<const FitQuery> queries) const {
  std::vector<std::optional<double>> out;
  fit_many_into(queries, out);
  return out;
}

void AvailabilityProfile::fit_many_into(
    std::span<const FitQuery> queries,
    std::vector<std::optional<double>>& out) const {
  OBS_COUNT("resv.fit.batches", 1);
  out.clear();
  out.reserve(queries.size());
  for (const FitQuery& q : queries)
    out.push_back(q.kind == FitKind::kEarliest
                      ? earliest_fit(q.procs, q.duration, q.not_before)
                      : latest_fit(q.procs, q.duration, q.deadline,
                                   q.not_before));
}

double AvailabilityProfile::average_available(double from, double to) const {
  RESCHED_CHECK(from < to, "average_available requires from < to");
  double integral = 0.0;
  index_.for_each_segment(from, to, [&](double key, double next, int value) {
    double seg_start = std::max(key, from);
    double seg_end = std::min(next, to);
    if (seg_start >= to) return;
    if (seg_end <= seg_start) return;
    integral += static_cast<double>(std::clamp(value, 0, capacity_)) *
                (seg_end - seg_start);
  });
  return integral / (to - from);
}

double AvailabilityProfile::reserved_area_after(double from) const {
  double area = 0.0;
  index_.for_each_segment(from, kPosInf, [&](double key, double next,
                                             int value) {
    if (next == kPosInf) return;  // unbounded all-free tail
    double seg_start = std::max(key, from);
    if (next <= seg_start) return;
    area += static_cast<double>(capacity_ - std::clamp(value, 0, capacity_)) *
            (next - seg_start);
  });
  return area;
}

int AvailabilityProfile::min_available(double from, double to) const {
  RESCHED_CHECK(from < to, "min_available requires from < to");
  int lo = capacity_;
  index_.for_each_segment(from, to, [&](double key, double next, int value) {
    (void)key;
    if (next <= from) return;
    lo = std::min(lo, std::clamp(value, 0, capacity_));
  });
  return lo;
}

std::vector<double> AvailabilityProfile::sample_available(double from,
                                                          double to,
                                                          double step) const {
  RESCHED_CHECK(step > 0.0, "sample step must be positive");
  std::vector<double> out;
  for (double t = from; t < to; t += step)
    out.push_back(static_cast<double>(available_at(t)));
  return out;
}

std::vector<double> AvailabilityProfile::breakpoints() const {
  std::vector<double> out;
  index_.for_each_segment(kNegInf, kPosInf,
                          [&](double key, double next, int value) {
                            (void)next;
                            (void)value;
                            if (key != kNegInf) out.push_back(key);
                          });
  return out;
}

std::vector<std::pair<double, int>> AvailabilityProfile::canonical_steps()
    const {
  std::vector<std::pair<double, int>> out;
  int prev = 0;
  index_.for_each_segment(kNegInf, kPosInf,
                          [&](double key, double next, int value) {
                            (void)next;
                            if (key == kNegInf) {
                              prev = value;
                              out.emplace_back(kNegInf, prev);
                              return;
                            }
                            if (value == prev) return;
                            out.emplace_back(key, value);
                            prev = value;
                          });
  return out;
}

int historical_average_available(const AvailabilityProfile& profile,
                                 double now, double window) {
  RESCHED_CHECK(window > 0.0, "history window must be positive");
  double avg = profile.average_available(now - window, now);
  int q = static_cast<int>(std::lround(avg));
  return std::clamp(q, 1, profile.capacity());
}

}  // namespace resched::resv
