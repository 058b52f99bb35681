// One calendar query — an earliest fit, a latest fit or a first-free
// lookup — the unit of the calendar differential suites' query batteries
// (resv_index_test, sim_test): the indexed AvailabilityProfile and the
// LinearProfile oracle answer the same battery and must agree on every
// answer.
#pragma once

#include <optional>
#include <ostream>
#include <span>
#include <vector>

namespace resched::fit_probe {

struct FitProbe {
  enum class Kind { kEarliest, kLatest, kFirstFree };

  Kind kind = Kind::kEarliest;
  int procs = 1;
  double duration = 1.0;   ///< fits only
  double not_before = 0.0; ///< a lookup's t
  double deadline = 0.0;   ///< finish bound; latest-fit only

  static FitProbe earliest(int procs, double duration, double not_before) {
    return {Kind::kEarliest, procs, duration, not_before, 0.0};
  }
  static FitProbe latest(int procs, double duration, double deadline,
                         double not_before) {
    return {Kind::kLatest, procs, duration, not_before, deadline};
  }
  static FitProbe first_free(int procs, double t) {
    return {Kind::kFirstFree, procs, 0.0, t, 0.0};
  }

  /// A fit's start (nullopt when none fits), or a lookup's `at` (+inf
  /// when no segment reaches procs) with its peak_before.
  struct Answer {
    std::optional<double> start;
    int peak_before = 0;
    bool operator==(const Answer&) const = default;
    friend std::ostream& operator<<(std::ostream& os, const Answer& a) {
      if (!a.start) return os << "nullopt";
      const auto precision = os.precision(17);
      os << *a.start << " (peak " << a.peak_before << ")";
      os.precision(precision);
      return os;
    }
  };

  template <class Profile>
  Answer answer(const Profile& profile) const {
    switch (kind) {
      case Kind::kEarliest:
        return {profile.earliest_fit(procs, duration, not_before)};
      case Kind::kLatest:
        return {profile.latest_fit(procs, duration, deadline, not_before)};
      case Kind::kFirstFree: {
        const auto free = profile.first_free(procs, not_before);
        return {free.at, free.peak_before};
      }
    }
    return {};
  }

  const char* name() const {
    switch (kind) {
      case Kind::kEarliest: return "earliest_fit";
      case Kind::kLatest: return "latest_fit";
      case Kind::kFirstFree: return "first_free";
    }
    return "?";
  }
};

/// Answers every probe of `battery` against `profile`, in order.
template <class Profile>
std::vector<FitProbe::Answer> answer_all(const Profile& profile,
                                         std::span<const FitProbe> battery) {
  std::vector<FitProbe::Answer> out;
  out.reserve(battery.size());
  for (const FitProbe& probe : battery) out.push_back(probe.answer(profile));
  return out;
}

}  // namespace resched::fit_probe
