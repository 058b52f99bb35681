// Sharded multi-scheduler service (DESIGN.md §9).
//
// Partitions the platform into N shards, each owning a private
// StepIndex-backed calendar and an online::SchedulerService bound to it
// (the engine-per-shard constructor). A router front-end accepts a stream
// of job submissions and decides, per arrival, which shard schedules it
// (advance reservations bypass the router: callers submit them to one
// shard's engine(s)):
//
//   * load-aware selection — shards are ranked by load_score(): queue
//     depth (pending engine events) plus committed work still ahead of now
//     (resv::AvailabilityProfile::reserved_area_after); lowest score wins,
//     ties by shard id;
//   * cross-shard spillover — a deadline job is first probed read-only
//     against the chosen shard's calendar (core::evaluate_finish_floor);
//     if the floor proves the deadline unreachable there, or the shard's
//     engine rejects the job (a rejection leaves the calendar untouched),
//     the router retries the next-ranked shard, down to the last one,
//     whose engine always decides.
//
// The router decides per request, which is what reschedd's --shards N mode
// needs; archive replays route whole windows at a time instead (src/pdes/),
// through the same load_score().
//
// Determinism contract: routing decisions depend only on the submission
// stream, never on wall-clock or thread identity. Before each decision the
// router advances *every* shard to the arrival time in lockstep (a
// util::WorkerPool barrier), so load scores are read at a synchronized
// point and are identical for any thread count — replaying a stream with
// 1 or N threads yields byte-identical per-shard traces, and
// merge_traces' (time, shard, seq) total order makes the combined trace
// stable too.
//
// A one-shard service is a transparent pass-through: submissions go
// straight to the single engine, so traces and metrics are byte-identical
// to a standalone SchedulerService over the same stream (the differential
// test in tests/shard_test.cpp pins this). reschedd runs every daemon on
// a ShardedService and relies on it: now() is the engines' clock, so a
// checkpoint restored into engine(0) governs the router's checks too.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/online/service.hpp"
#include "src/resv/profile.hpp"
#include "src/util/worker_pool.hpp"

namespace resched::obs {
class Counter;
class Histogram;
}  // namespace resched::obs

namespace resched::shard {

/// Routing score of one shard at time t (lower is better; ties go to the
/// lower shard id): one pending engine event weighs as much as one
/// processor-hour of work committed after t. `routed_work` (proc-seconds)
/// is work already routed to the shard but not yet on its calendar — the
/// PDES window accumulator; the lockstep router, whose calendars are live,
/// passes none.
double load_score(const online::SchedulerService& engine,
                  const resv::AvailabilityProfile& calendar, double t,
                  double routed_work = 0.0);

struct ShardedConfig {
  int shards = 1;
  /// Worker threads for lockstep shard advancement (clamped to shards).
  int threads = 1;
  /// Per-shard engine configuration; capacity is the capacity of EACH
  /// shard (the platform has shards * service.capacity processors).
  online::ServiceConfig service;
};

/// The router's record of one multi-shard routing decision (not produced
/// in one-shard pass-through mode, where the router never decides).
struct RoutingOutcome {
  int job_id = -1;
  double time = 0.0;
  int first_choice = -1;  ///< load-ranked best shard
  int shard = -1;         ///< shard that took the final decision
  int probes = 0;         ///< shards attempted (floor probes included)
  bool spilled = false;   ///< shard != first_choice
  online::Decision decision = online::Decision::kRejected;
};

class ShardedService {
 public:
  explicit ShardedService(ShardedConfig config);
  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;
  ~ShardedService();

  int shards() const { return config_.shards; }
  /// The engines' clock: the latest now() among them. Lockstep keeps them
  /// equal apart from run_all(); a checkpoint restored into an engine sets
  /// it.
  double now() const;

  /// Enqueues a DAG submission; routed when the stream reaches job.submit.
  void submit(online::JobSubmission job);

  /// Cancels a live job at t >= now(): advances every shard to t in
  /// lockstep, locates the shard whose engine holds the job, and delegates
  /// to SchedulerService::cancel_job there. Returns false when no shard
  /// has the job live.
  bool cancel_job(double t, int job_id);

  /// Durability hook (DESIGN.md §10), invoked on every submit / cancel_job
  /// accepted by the router — before any routing or engine state changes,
  /// mirroring the single-engine SchedulerService hook. Per-shard engine
  /// hooks stay unset; the router is the daemon's single write-ahead point.
  void set_wal_hook(online::SchedulerService::WalHook hook) {
    wal_hook_ = std::move(hook);
  }

  /// Routes every pending arrival with time <= t and advances all shards
  /// to max(t, now) in lockstep.
  void run_until(double t);

  /// Routes everything pending, then drains every shard's event queue.
  void run_all();

  /// Conservative-window advance (src/pdes/): every shard's engine runs to
  /// t behind one pool barrier, with no routing. The PDES driver submits
  /// directly to the per-shard engines (bypassing the router), so the
  /// router queue must be empty — mixing routed arrivals with window
  /// advances would run engines past un-routed submissions.
  void advance_window(double t);

  /// Earliest pending engine event across all shards; +infinity when
  /// every queue is drained. The PDES lower-bound-on-timestamp input.
  double next_event_time() const;

  /// max − min of per-shard wall-clock inside the most recent lockstep
  /// advance — the barrier-stall signal for pdes.* instrumentation. Zero
  /// when observability is compiled out.
  std::int64_t last_window_stall_ns() const;

  /// Shard s's engine — attach traces (TraceWriter(out, s) tags records
  /// with the shard id), read metrics / outcomes, register ft handlers.
  online::SchedulerService& engine(int s);
  const online::SchedulerService& engine(int s) const;
  /// Shard s's calendar (the profile engine(s) is bound to).
  const resv::AvailabilityProfile& calendar(int s) const;

  /// Router-level decisions, in routing order. Empty in one-shard
  /// pass-through mode (decisions then live in engine(0).outcomes()).
  const std::vector<RoutingOutcome>& routing() const { return routing_; }

  /// Final admission tallies across the whole service. Spillover probes
  /// that were rejected and later accepted elsewhere count once, under
  /// their final decision (per-engine metrics count every attempt).
  struct Aggregates {
    int submitted = 0;
    int accepted = 0;
    int counter_offered = 0;
    int rejected = 0;
    int spillovers = 0;  ///< jobs that landed off their first-choice shard
  };
  Aggregates aggregates() const;

  /// Events processed across all shards (the throughput bench's unit).
  std::uint64_t events_processed() const;

  /// Per-shard roll-up (events, admissions, spill-ins, backlog) as a
  /// fixed-width table — the replay CLI prints this after a run.
  std::string summary_table() const;

 private:
  struct Shard;

  /// Lockstep barrier: every shard runs run_until(t) (parallel when the
  /// pool has threads). Publishes per-shard obs after the barrier.
  void advance_all(double t);
  void route_job(double t, online::JobSubmission job);
  /// Every shard, best load_score() first (ties by id).
  std::vector<int> ranked_shards(double t) const;
  void record_outcome(const RoutingOutcome& outcome);

  ShardedConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  util::WorkerPool pool_;
  /// Arrivals not yet routed, in (time, arrival seq) order — the router's
  /// deterministic submission order, mirroring EventQueue's FIFO tie-break.
  std::map<std::pair<double, std::uint64_t>, online::JobSubmission> pending_;
  std::uint64_t arrival_seq_ = 0;
  online::SchedulerService::WalHook wal_hook_;
  std::vector<RoutingOutcome> routing_;
  Aggregates aggregates_;
  /// Per-task fastest times behind the tier-1 floor of the job being
  /// routed — built once per job (all shards share one capacity) and
  /// evaluated against each candidate shard's calendar; buffer reused
  /// across jobs.
  std::vector<double> floor_times_;
};

}  // namespace resched::shard
