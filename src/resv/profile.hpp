// Processor availability profile over time (paper §3.2).
//
// The profile is an exact piecewise-constant step function: for a platform
// of `capacity` processors and a set of reservations it answers, at any
// time t, how many processors are free. The two scheduling primitives every
// algorithm in the paper reduces to are:
//
//   * earliest_fit — the earliest start >= not_before at which `procs`
//     processors stay free for `duration` seconds (RESSCHED, §4.2 phase 2);
//   * latest_fit   — the latest such start finishing by `deadline`
//     (RESSCHEDDL backward scheduling, §5.2).
//
// Both queries are exact, not heuristics, and since the indexed rewrite
// they run as O(log n) amortized descents over a treap of the availability
// steps (resv::StepIndex) instead of linear scans over every breakpoint —
// the index skips uniform stretches of calendar wholesale and is maintained
// incrementally through add/release/commit/rollback/compact, so the online
// engine and every §4/§5 algorithm benefit without call-site changes. The
// legacy linear scan survives as resv::LinearProfile, the differential-test
// oracle: both implementations return byte-identical fit results.
// Over-subscribed instants (more reserved than capacity, possible when
// synthetic transforms inject reservations) clamp to zero availability.
//
// Thread safety: const queries are safe from any number of threads while
// nothing mutates the profile.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/resv/fit_query.hpp"
#include "src/resv/reservation.hpp"
#include "src/resv/step_index.hpp"

namespace resched::resv {

class AvailabilityProfile {
 public:
  /// Empty profile: all `capacity` processors free forever.
  explicit AvailabilityProfile(int capacity);

  /// Profile with an initial set of competing reservations.
  AvailabilityProfile(int capacity, std::span<const Reservation> reservations);

  int capacity() const { return capacity_; }
  /// Number of reservations added so far.
  int reservation_count() const { return reservation_count_; }

  /// Commits a reservation (subtracts it from availability). Reservations
  /// may over-subscribe; availability is clamped at zero when queried.
  void add(const Reservation& r);

  /// Releases a previously added reservation: the exact inverse of add().
  /// Availability over [r.start, r.end) is restored and breakpoints that
  /// become redundant (same raw value as their predecessor) are coalesced,
  /// so the step function is indistinguishable from one rebuilt from
  /// scratch without r. Releasing a reservation that was never added
  /// corrupts the profile — callers pair releases with adds (see commit /
  /// rollback).
  void release(const Reservation& r);

  /// Opaque record of a group of reservations committed together, enabling
  /// rollback of a rejected admission without rebuilding the profile.
  /// Tokens are single-use and tied to the profile that issued them.
  class CommitToken {
   public:
    CommitToken() = default;
    bool empty() const { return reservations_.empty(); }
    std::size_t size() const { return reservations_.size(); }

   private:
    friend class AvailabilityProfile;
    std::vector<Reservation> reservations_;
  };

  /// Adds every reservation in `rs` and returns a token that can undo the
  /// whole group. O(|rs| log R) — no profile rebuild.
  CommitToken commit(std::span<const Reservation> rs);

  /// Undoes a commit(): releases every reservation recorded in the token
  /// (in reverse order) and empties it. Safe to call with an empty token.
  void rollback(CommitToken& token);

  /// Drops breakpoints strictly below `horizon`, pinning the availability
  /// at `horizon` as the new "since forever" value. Long-running engines
  /// call this to keep calendars from growing without bound; queries at or
  /// after `horizon` are unaffected, queries before it see the value that
  /// held at `horizon`. reservation_count() is unchanged (it counts adds,
  /// not live reservations).
  void compact(double horizon);

  /// Free processors at time t (clamped to [0, capacity]).
  int available_at(double t) const;

  /// Earliest start >= not_before with `procs` free for `duration` seconds.
  /// Empty only when procs exceeds the capacity (every profile is eventually
  /// all-free, so a fit always exists otherwise). duration must be > 0.
  std::optional<double> earliest_fit(int procs, double duration,
                                     double not_before) const;

  /// Latest start such that start >= not_before and start + duration <=
  /// deadline with `procs` free throughout; empty when no such window exists.
  std::optional<double> latest_fit(int procs, double duration, double deadline,
                                   double not_before) const;

  /// Batch form: answers queries[i] with the matching earliest_fit /
  /// latest_fit against this calendar. Used by the RESSCHED
  /// allocation sweep (one query per candidate processor count) and the
  /// online admission pre-filter (one query per task).
  std::vector<std::optional<double>> fit_many(
      std::span<const FitQuery> queries) const;

  /// fit_many writing into a caller-owned buffer (cleared first), so hot
  /// sweeps reuse capacity across batches instead of allocating per batch.
  void fit_many_into(std::span<const FitQuery> queries,
                     std::vector<std::optional<double>>& out) const;

  /// Time-average of available processors over [from, to), from < to.
  double average_available(double from, double to) const;

  /// Committed work still ahead of `from`: the integral of (capacity −
  /// availability), clamped to [0, capacity], over [from, last breakpoint),
  /// in processor·seconds. The unbounded all-free tail contributes nothing,
  /// so the result is finite; a calendar with no reservations after `from`
  /// returns 0. Load signal for shard routing (DESIGN.md §9).
  double reserved_area_after(double from) const;

  /// Minimum availability over [from, to).
  int min_available(double from, double to) const;

  /// Availability sampled every `step` seconds over [from, to) — used for
  /// reservation-schedule correlation studies (paper §3.2.1).
  std::vector<double> sample_available(double from, double to,
                                       double step) const;

  /// Breakpoints of the step function, ascending (exposed for tests).
  std::vector<double> breakpoints() const;

  /// Canonical (time, raw availability) steps: the first entry is the
  /// -infinity sentinel (value = capacity unless compacted) and entries
  /// whose value equals their predecessor's are skipped, so two profiles
  /// describing the same step function compare equal regardless of the
  /// add/release history that built them.
  std::vector<std::pair<double, int>> canonical_steps() const;

 private:
  StepIndex index_;  // treap over the availability steps; -inf sentinel
  int capacity_;
  int reservation_count_ = 0;
};

/// Historical average number of available processors q (paper §4.2,
/// BL_CPAR / BD_CPAR): the time-average availability over the `window`
/// seconds preceding `now`, rounded to the nearest integer and clamped to
/// [1, capacity].
int historical_average_available(const AvailabilityProfile& profile,
                                 double now, double window);

}  // namespace resched::resv
