// Online scheduler service: streaming submissions over an incremental
// calendar, with admission control for deadline jobs.
//
// The offline evaluator (src/sim/) fixes a reservation calendar up front
// and schedules one DAG against it. This service is the operating mode of a
// real reservation-backed scheduler: DAG applications and external advance
// reservations arrive as a time-ordered event stream, and per arrival the
// engine runs one of the paper's algorithms (§4 RESSCHED for best-effort
// jobs, §5 RESSCHEDdl for deadline jobs) against the *current* calendar
// state, then commits the resulting per-task allocations as new
// reservations via the incremental AvailabilityProfile mutation API — no
// calendar rebuild, ever.
//
// Admission control (deadline jobs): when RESSCHEDdl cannot meet the
// requested deadline, the engine computes the earliest feasible deadline
// (the §5.3 tightest-deadline binary search on the live calendar) and, per
// policy, either rejects the job or counter-offers that deadline. A
// counter-offered schedule is committed tentatively; if the offer exceeds
// the submitter's stretch limit the commit is rolled back through the
// profile's rollback token, leaving the calendar untouched.
//
// Fault tolerance (DESIGN.md §8): the engine keeps full per-task placement
// state (reservation, version, pending/running/done) so the src/ft/ repair
// engine can invalidate and re-place individual allocations after a
// disruption. Every task / external-reservation event carries the placement
// version it was pushed for; an event whose version no longer matches the
// live placement is *stale* (the placement was repaired or the job
// abandoned) and is skipped. Disruptions are ordinary queue events
// (EventType::kDisruption) dispatched to a registered handler — the service
// itself contains no repair policy. With no handler registered the stale
// paths are unreachable and the engine behaves exactly as before.
//
// Determinism: all state changes flow through the event queue (stable FIFO
// tie-breaking), the algorithms are deterministic, all per-job state lives
// in ordered maps, and nothing depends on wall-clock or thread identity —
// replaying the same stream twice yields byte-identical traces and metrics.
#pragma once

#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "src/core/resscheddl.hpp"
#include "src/core/ressched.hpp"
#include "src/core/tightest_deadline.hpp"
#include "src/dag/dag.hpp"
#include "src/online/event_queue.hpp"
#include "src/online/online_metrics.hpp"
#include "src/online/trace.hpp"
#include "src/resv/profile.hpp"

namespace resched::ft {
struct ServiceAccess;
}  // namespace resched::ft

namespace resched::online {

enum class AdmissionPolicy {
  kRejectInfeasible,  ///< deadline misses are rejected outright
  kCounterOffer,      ///< offer the earliest feasible deadline instead
};

struct ServiceConfig {
  int capacity = 64;  ///< platform processors
  /// Window for the historical average availability q (paper §4.2).
  double history_window = 7 * 86400.0;
  core::ResschedParams ressched;  ///< algorithm for best-effort jobs
  core::DeadlineParams deadline;  ///< algorithm for deadline jobs
  AdmissionPolicy admission = AdmissionPolicy::kCounterOffer;
  /// A counter-offer is accepted when offered − now <= limit * (requested −
  /// now); infinity (the default) accepts every offer.
  double counter_offer_limit = std::numeric_limits<double>::infinity();
  core::TightestDeadlineOptions tightest;  ///< counter-offer search knobs
  /// Drop calendar breakpoints older than now − history_window as the
  /// engine advances, bounding memory for long-running streams.
  bool compact_calendar = true;
  /// Audit every admission rollback: capture the calendar's canonical steps
  /// before a tentative commit and assert they are restored after the
  /// rollback. O(R) per audited admission — a test / debugging knob.
  bool audit_rollback = false;
};

/// One application arriving in the stream. Aggregate-initialize (Dag has no
/// default constructor): {id, submit, std::move(dag), deadline}.
struct JobSubmission {
  int job_id;
  double submit;
  dag::Dag dag;
  /// Absolute completion requirement; nullopt = best-effort.
  std::optional<double> deadline;
};

/// The engine's verdict and schedule for one submission.
struct JobOutcome {
  int job_id = -1;
  Decision decision = Decision::kRejected;
  double submit = 0.0;
  /// Requested deadline (NaN for best-effort jobs).
  double requested_deadline = 0.0;
  /// Earliest feasible deadline found when the request was infeasible
  /// (NaN when not computed).
  double counter_offer = 0.0;
  double start = 0.0;   ///< first task start (NaN when rejected)
  double finish = 0.0;  ///< last task finish (NaN when rejected)
  double cpu_hours = 0.0;
  /// Admission-time schedule (empty when rejected). Disruption repairs may
  /// move individual placements afterwards; the live placements are
  /// tracked by the engine, not re-written here.
  core::AppSchedule schedule;
};

class SchedulerService {
 public:
  /// Engine over an internally owned calendar of config.capacity procs —
  /// the classic single-engine mode.
  explicit SchedulerService(ServiceConfig config);

  /// Engine bound to an externally owned calendar (the engine-per-shard
  /// mode, DESIGN.md §9): the service mutates `calendar` in place and never
  /// owns it, so a shard can hand the same calendar to its repair engine
  /// and its checkpointer. `calendar` must outlive the service and its
  /// capacity must equal config.capacity.
  SchedulerService(ServiceConfig config, resv::AvailabilityProfile& calendar);

  // The engine hands out its address (repair handlers, ServiceAccess) and
  // may point into its own calendar member; it lives where it was built.
  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// Enqueues a DAG submission. Submissions may be enqueued in any order;
  /// processing is strictly time-ordered (ties FIFO by enqueue order). A
  /// submission in the engine's past (submit < now()) is a precondition
  /// violation.
  void submit(JobSubmission job);

  /// Enqueues an external advance reservation that becomes visible to the
  /// scheduler at `arrival` and is committed to the calendar then.
  void submit_reservation(double arrival, const resv::Reservation& r);

  /// Cancels a live job at time t >= now() (DESIGN.md §10). The engine
  /// first drains every event with time <= t, then releases the job's
  /// placements: pending placements are released in full, running tasks are
  /// killed leaving their elapsed [start, t) stub in the calendar (that
  /// work genuinely happened), and completed tasks keep their reservations.
  /// Queued events for the job go stale via version bumps (cancellation
  /// switches the engine into fault-tolerant mode, like a repair), and the
  /// job id is retired. Emits one "cancel" trace record carrying the number
  /// of released placements. Returns false — with no state change — when
  /// the job is not live (never admitted, already finished, or cancelled).
  bool cancel_job(double t, int job_id);

  /// One externally driven mutation, announced to the WAL hook *after*
  /// argument validation and *before* any state change — the write-ahead
  /// point (DESIGN.md §10). Pointees are borrowed for the hook call only.
  struct WalOp {
    enum class Kind { kSubmit, kReservation, kCancel };
    Kind kind = Kind::kSubmit;
    double time = 0.0;                        ///< effective apply time
    const JobSubmission* job = nullptr;       ///< kSubmit
    const resv::Reservation* resv = nullptr;  ///< kReservation
    int job_id = -1;                          ///< kCancel
  };
  using WalHook = std::function<void(const WalOp&)>;

  /// Registers the durability hook invoked on every submit /
  /// submit_reservation / cancel_job (empty hook detaches). The hook may
  /// throw to veto the mutation (e.g. a failed WAL append): the engine
  /// state is untouched and the exception propagates to the caller.
  void set_wal_hook(WalHook hook) { wal_hook_ = std::move(hook); }

  /// Processes every event with time <= t, advancing now() to max(t, now).
  void run_until(double t);

  /// Drains the event queue completely.
  void run_all();

  /// Time of the earliest pending event; +infinity when the queue is
  /// empty. The conservative parallel replay (src/pdes/) derives its
  /// lower-bound-on-timestamp barrier from this.
  double next_event_time() const {
    return queue_.empty() ? std::numeric_limits<double>::infinity()
                          : queue_.peek().time;
  }

  double now() const { return now_; }
  const resv::AvailabilityProfile& profile() const { return *profile_; }
  const OnlineMetrics& metrics() const { return metrics_; }
  const std::vector<JobOutcome>& outcomes() const { return outcomes_; }
  /// Pending events (load signal for shard routing).
  std::size_t queue_size() const { return queue_.size(); }
  /// Events processed since construction — the sharded throughput bench's
  /// unit of work. Process-local: not part of the checkpoint format.
  std::uint64_t events_processed() const { return events_processed_; }
  /// Processors busy right now (running tasks + started externals).
  int used_procs() const { return used_procs_; }
  /// All reservations currently in the calendar, in commit order — an
  /// offline rebuild of the calendar from this list matches profile()
  /// exactly. Rolled-back admissions never enter the list; disruption
  /// repairs erase the reservations they release.
  const resv::ReservationList& committed_reservations() const {
    return committed_;
  }

  /// Attaches a trace writer (borrowed; nullptr detaches). Every processed
  /// event and admission decision is recorded.
  void set_trace(TraceWriter* trace) { trace_ = trace; }

  // --- Fault-tolerance surface (src/ft/) ----------------------------------

  /// Invoked when a kDisruption event is processed: (time, event seq,
  /// disruption id). Registering a handler switches the engine into
  /// fault-tolerant mode (stale events tolerated, job-id reuse rejected);
  /// with no handler the engine behaves exactly as without this feature.
  using DisruptionHandler =
      std::function<void(double t, std::uint64_t seq, int id)>;
  void set_disruption_handler(DisruptionHandler handler);

  /// Invoked after an external advance reservation is committed on arrival.
  /// A newly visible ("blind", paper §6) reservation can collide with task
  /// placements committed before it was known — the handler is expected to
  /// resolve any resulting over-subscription. Registering one switches the
  /// engine into fault-tolerant mode, like set_disruption_handler.
  using ConflictHandler = std::function<void(double t, std::uint64_t seq)>;
  void set_conflict_handler(ConflictHandler handler);

  /// Enqueues a disruption carrying opaque id `id` at time t >= now().
  /// Returns the event's sequence number.
  std::uint64_t submit_disruption(double t, int id);

  /// Stale (version-mismatched) events skipped so far — non-zero only when
  /// disruption repairs rewrote placements.
  std::uint64_t stale_events() const { return stale_events_; }

  /// Live placement state of one task (exposed for the repair engine and
  /// for invariant checks in tests).
  struct LiveTask {
    core::TaskReservation r;  ///< current committed placement
    int version = 0;          ///< bumped on every invalidation / re-place
    enum class State { kPending, kRunning, kDone } state = State::kPending;
    int attempts = 1;  ///< placement attempts (1 = admission placement)
    int failures = 0;  ///< times killed while running (retry cap / backoff)
    /// r is live in the calendar. False only transiently, between a repair
    /// eviction and the re-placement (or job abandonment) ending the same
    /// episode.
    bool placed = true;
  };
  struct LiveJob {
    dag::Dag dag;
    std::optional<double> deadline;
    double submit = 0.0;
    int remaining_tasks = 0;
    std::vector<LiveTask> tasks;  ///< indexed by task id
  };
  /// One committed external advance reservation, keyed by a dense id.
  struct ExternalResv {
    resv::Reservation r;
    int version = 0;
    bool started = false;
  };

  const std::map<int, LiveJob>& live_jobs() const { return live_jobs_; }
  const std::map<int, ExternalResv>& external_reservations() const {
    return externals_;
  }

 private:
  friend struct ::resched::ft::ServiceAccess;

  void process(const Event& e);
  void handle_submission(const Event& e);
  void handle_reservation_start(const Event& e);
  void handle_reservation_end(const Event& e);
  void handle_task_completion(const Event& e);
  void schedule_job(const JobSubmission& job, double t, std::uint64_t seq);
  /// Commits `schedule` through the profile's commit token, records the
  /// outcome, and pushes start/completion events. A counter-offer exceeding
  /// the submitter's limit is rolled back and rejected instead.
  void commit_schedule(const JobSubmission& job, double t, std::uint64_t seq,
                       const core::AppSchedule& schedule, Decision decision,
                       double counter_offer);
  void reject(const JobSubmission& job, double t, std::uint64_t seq,
              double counter_offer);
  void change_usage(double t, int delta);
  /// Removes the latest committed_ entry matching r exactly (cancellation
  /// releases placements the admission committed).
  void erase_committed(const resv::Reservation& r);
  /// Records a version-mismatched event: an invariant violation unless a
  /// disruption handler is active (only repairs create stale events).
  void note_stale(const Event& e);
  LiveTask* find_live_task(int job, int task);
  void trace_event(const Event& e, double value = 0.0);
  void trace_decision(std::uint64_t seq, double t, Decision decision, int job,
                      double value);

  ServiceConfig config_;
  /// Engaged only in owning mode; profile_ then points at it. In bound
  /// mode (the shard constructor) it stays empty and profile_ targets the
  /// caller's calendar.
  std::optional<resv::AvailabilityProfile> owned_profile_;
  resv::AvailabilityProfile* profile_;
  EventQueue queue_;
  OnlineMetrics metrics_;
  std::vector<JobOutcome> outcomes_;
  resv::ReservationList committed_;
  std::map<std::uint64_t, JobSubmission> pending_jobs_;
  std::map<std::uint64_t, resv::Reservation> pending_resv_;
  std::map<int, LiveJob> live_jobs_;
  std::map<int, ExternalResv> externals_;
  /// Job ids that completed or were abandoned — stale events referencing
  /// them are tolerated (in ft mode) instead of asserting.
  std::set<int> retired_jobs_;
  DisruptionHandler disruption_handler_;
  ConflictHandler conflict_handler_;
  WalHook wal_hook_;
  TraceWriter* trace_ = nullptr;
  double now_;
  int used_procs_ = 0;
  int next_external_id_ = 0;
  std::uint64_t stale_events_ = 0;
  std::uint64_t events_processed_ = 0;
  bool ft_active_ = false;
  /// Admission pre-filter scratch: the per-task floor query buffer,
  /// reused across jobs.
  std::vector<resv::FitQuery> floor_queries_;
};

}  // namespace resched::online
