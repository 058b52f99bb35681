// Opaque batch-scheduler facade (paper §3.2.2 / §7).
//
// The paper assumes the application scheduler sees the *entire* reservation
// schedule. Real batch schedulers may hide it: a user can only submit a
// reservation request and learn the earliest start the system offers. This
// facade models that interface — the underlying AvailabilityProfile is
// private, and every query is metered — so schedulers can be evaluated
// under "a bounded number of trial-and-error reservation requests per
// task", the fallback the paper sketches when full knowledge is
// unavailable (see core::schedule_blind and bench_ext_blind).
#pragma once

#include <utility>

#include "src/resv/profile.hpp"

namespace resched::resv {

class BatchScheduler {
 public:
  /// Wraps a calendar; the caller keeps no other handle to it.
  explicit BatchScheduler(AvailabilityProfile calendar)
      : calendar_(std::move(calendar)) {}

  int capacity() const { return calendar_.capacity(); }

  /// "Could I reserve `procs` processors for `duration` seconds starting at
  /// or after `earliest`?" Returns the earliest offered start. Each call
  /// counts one probe.
  double probe(int procs, double duration, double earliest) const;

  /// Books the reservation. Real systems would re-validate the offer; here
  /// submission is instantaneous (paper §3.2.2 assumption 1), so an offer
  /// from probe() is always still available.
  void reserve(const Reservation& r) { calendar_.add(r); }

  /// Probes consumed so far (reservations are free; probing is the metered
  /// resource).
  long probes_used() const { return probes_; }

 private:
  AvailabilityProfile calendar_;
  mutable long probes_ = 0;
};

}  // namespace resched::resv
