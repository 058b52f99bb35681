// Batch fit-query descriptors shared by the indexed availability profile
// and the linear oracle.
//
// A FitQuery names one earliest-fit or latest-fit probe; fit_many() answers
// a whole batch against a single calendar, which is how the indexed profile
// and the linear oracle are differential-tested. The deadline finish-floor
// filters (core::finish_floor_queries) also describe their per-task probes
// as FitQuery lists.
#pragma once

namespace resched::resv {

enum class FitKind {
  kEarliest,  ///< earliest start >= not_before with procs free for duration
  kLatest,    ///< latest start with start + duration <= deadline
};

struct FitQuery {
  FitKind kind = FitKind::kEarliest;
  int procs = 1;
  double duration = 1.0;
  double not_before = 0.0;
  /// Finish bound for kLatest queries; ignored by kEarliest.
  double deadline = 0.0;

  static FitQuery earliest(int procs, double duration, double not_before) {
    return {FitKind::kEarliest, procs, duration, not_before, 0.0};
  }
  static FitQuery latest(int procs, double duration, double deadline,
                         double not_before) {
    return {FitKind::kLatest, procs, duration, not_before, deadline};
  }
};

}  // namespace resched::resv
