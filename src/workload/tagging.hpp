// Reservation-schedule construction from batch logs (paper §3.2.1).
//
// Following the paper (and [44, 45]), a reservation schedule is synthesized
// from a batch log by tagging a random fraction phi of the jobs as
// "reserved" and discarding the rest. Because such a schedule is stationary
// while a real one should thin out with look-ahead distance from the
// scheduling instant `now`, the tagged schedule is then reshaped by one of
// three methods:
//
//  * linear — reservations-per-day decays linearly to zero at now + horizon;
//  * expo   — reservations-per-day decays exponentially (≈5% left at the
//             horizon);
//  * real   — only reservations whose jobs were *submitted* before `now`
//             are kept, letting the log's own wait-time structure provide
//             the decay.
//
// All three keep reservations already running at `now` untouched and drop
// everything past now + horizon (the paper uses a 7-day horizon).
//
// Building a schedule costs O(window), not O(log): only the jobs that can
// overlap [now - history, now + horizon] are visited (jobs_in_window), and
// the tagging stream jumps over the coins every other job would have drawn
// (util::Rng::discard), so the schedule and the stream left behind equal
// those of a coin per job.
#pragma once

#include <cstddef>

#include "src/resv/reservation.hpp"
#include "src/util/rng.hpp"
#include "src/workload/log.hpp"

namespace resched::workload {

enum class DecayMethod { kLinear, kExpo, kReal };

const char* to_string(DecayMethod method);

struct TaggingSpec {
  double phi = 0.1;          ///< fraction of jobs tagged as reservations
  DecayMethod method = DecayMethod::kLinear;
  double horizon = 7 * 86400.0;  ///< no reservations beyond now + horizon
  double history = 7 * 86400.0;  ///< past window kept for q estimation
};

/// Indices [first, last) of `log.jobs` a window can hold: every job before
/// `first` ended by `ends_after`, and every job from `last` on was
/// submitted after `submitted_by` (first <= last). Two binary searches, on
/// Log::max_end and on the submit order; a log without max_end gives
/// [0, jobs.size()).
struct JobRange {
  std::size_t first = 0;
  std::size_t last = 0;
};
JobRange jobs_in_window(const Log& log, double ends_after,
                        double submitted_by);

/// Builds the reservation schedule visible at scheduling time `now`:
/// reservations overlapping [now - history, now + horizon]. Future
/// reservations (start >= now) are reshaped per `spec.method`; ongoing and
/// past ones keep their original bounds (they only inform the historical
/// availability estimate).
resv::ReservationList make_reservation_schedule(const Log& log, double now,
                                                const TaggingSpec& spec,
                                                util::Rng& rng);

/// Treats *every* job of `log` as an advance reservation and extracts the
/// schedule visible at `now` (used for the Grid'5000 reservation log, where
/// jobs are reservations already): jobs submitted by `now`, overlapping
/// [now - history, infinity).
resv::ReservationList extract_reservations(const Log& log, double now,
                                           double history = 7 * 86400.0);

/// Picks a scheduling instant uniformly inside the log, away from both ends
/// by `margin` seconds so history and look-ahead windows stay in range.
double random_schedule_time(const Log& log, double margin, util::Rng& rng);

}  // namespace resched::workload
