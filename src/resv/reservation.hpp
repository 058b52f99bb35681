// Advance reservation record (paper §3.2).
//
// A reservation grants `procs` processors over the half-open interval
// [start, end). Competing users' reservations and the application's own
// per-task reservations use the same representation.
#pragma once

#include <vector>

namespace resched::resv {

struct Reservation {
  double start = 0.0;  ///< inclusive start time [seconds since epoch]
  double end = 0.0;    ///< exclusive end time
  int procs = 0;       ///< number of processors held

  double duration() const { return end - start; }
};

using ReservationList = std::vector<Reservation>;

}  // namespace resched::resv
