// In-memory batch job log (paper §3.2.1, Table 2).
//
// A Log is the common currency between the SWF reader, the synthetic log
// generators, and the reservation-schedule construction: a platform size
// plus a list of jobs with submit / start / runtime / processor counts.
#pragma once

#include <string>
#include <vector>

namespace resched::workload {

/// One batch job (or reservation) observed in a log.
struct Job {
  double submit = 0.0;   ///< submission time [seconds since log start]
  double start = 0.0;    ///< execution start time (submit + wait)
  double runtime = 0.0;  ///< execution duration [seconds]
  int procs = 0;         ///< processors used

  double wait() const { return start - submit; }
  double end() const { return start + runtime; }
};

/// A job log for one platform.
struct Log {
  std::string name;
  int cpus = 0;              ///< platform size (Table 2 "#CPUs")
  double duration = 0.0;     ///< log time span [seconds]
  std::vector<Job> jobs;     ///< sorted by submit time
  /// Running max of the job end times: max_end[i] is the latest end() of
  /// jobs[0..i]. Lets a window search skip every job that ended before the
  /// window in one binary search (workload::jobs_in_window). Filled by
  /// index_ends() where a log is produced (generate_log, read_swf); a log
  /// without it, or whose job count changed since, is searched whole.
  std::vector<double> max_end;

  /// Fraction of the platform's capacity consumed by the logged jobs.
  double utilization() const;

  /// Fills max_end. Requires jobs sorted by submit time, none starting
  /// before its submit (what generate_log and read_swf produce), which a
  /// window search also leans on.
  void index_ends();
};

}  // namespace resched::workload
