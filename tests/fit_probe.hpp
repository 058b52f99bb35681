// One earliest-fit or latest-fit query, the unit of the calendar
// differential suites' query batteries (resv_index_test, sim_test): the
// indexed AvailabilityProfile and the LinearProfile oracle answer the same
// battery and must agree on every answer.
#pragma once

#include <optional>
#include <span>
#include <vector>

namespace resched::fit_probe {

struct FitProbe {
  bool is_latest = false;  ///< latest_fit (true) or earliest_fit (false)
  int procs = 1;
  double duration = 1.0;
  double not_before = 0.0;
  double deadline = 0.0;  ///< finish bound; latest-fit only

  static FitProbe earliest(int procs, double duration, double not_before) {
    return {false, procs, duration, not_before, 0.0};
  }
  static FitProbe latest(int procs, double duration, double deadline,
                         double not_before) {
    return {true, procs, duration, not_before, deadline};
  }

  template <class Profile>
  std::optional<double> answer(const Profile& profile) const {
    return is_latest
               ? profile.latest_fit(procs, duration, deadline, not_before)
               : profile.earliest_fit(procs, duration, not_before);
  }
};

/// Answers every probe of `battery` against `profile`, in order.
template <class Profile>
std::vector<std::optional<double>> answer_all(
    const Profile& profile, std::span<const FitProbe> battery) {
  std::vector<std::optional<double>> out;
  out.reserve(battery.size());
  for (const FitProbe& probe : battery) out.push_back(probe.answer(profile));
  return out;
}

}  // namespace resched::fit_probe
