#include "src/online/service.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/obs/obs.hpp"
#include "src/util/error.hpp"

namespace resched::online {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

SchedulerService::SchedulerService(ServiceConfig config)
    : config_(std::move(config)),
      owned_profile_(std::in_place, config_.capacity),
      profile_(&*owned_profile_),
      metrics_(config_.capacity),
      now_(-kInf) {
  RESCHED_CHECK(config_.history_window > 0.0,
                "history window must be positive");
  RESCHED_CHECK(config_.counter_offer_limit > 0.0,
                "counter-offer limit must be positive");
}

SchedulerService::SchedulerService(ServiceConfig config,
                                   resv::AvailabilityProfile& calendar)
    : config_(std::move(config)),
      profile_(&calendar),
      metrics_(config_.capacity),
      now_(-kInf) {
  RESCHED_CHECK(config_.history_window > 0.0,
                "history window must be positive");
  RESCHED_CHECK(config_.counter_offer_limit > 0.0,
                "counter-offer limit must be positive");
  RESCHED_CHECK(calendar.capacity() == config_.capacity,
                "bound calendar capacity must match the engine's config");
}

void SchedulerService::submit(JobSubmission job) {
  RESCHED_CHECK(job.submit >= now_,
                "submission in the engine's past (submit < now)");
  RESCHED_CHECK(job.dag.size() >= 1, "submitted DAG must have tasks");
  if (job.deadline)
    RESCHED_CHECK(*job.deadline > job.submit,
                  "deadline must lie after the submission instant");
  if (wal_hook_) {
    WalOp op;
    op.kind = WalOp::Kind::kSubmit;
    op.time = job.submit;
    op.job = &job;
    wal_hook_(op);
  }
  Event e;
  e.time = job.submit;
  e.type = EventType::kSubmission;
  e.job = job.job_id;
  std::uint64_t seq = queue_.push(e);
  pending_jobs_.emplace(seq, std::move(job));
}

void SchedulerService::submit_reservation(double arrival,
                                          const resv::Reservation& r) {
  RESCHED_CHECK(arrival >= now_,
                "reservation arrival in the engine's past");
  RESCHED_CHECK(r.start >= arrival,
                "external reservation must start at or after its arrival");
  RESCHED_CHECK(r.start < r.end, "reservation must have positive duration");
  RESCHED_CHECK(r.procs >= 1, "reservation must hold processors");
  if (wal_hook_) {
    WalOp op;
    op.kind = WalOp::Kind::kReservation;
    op.time = arrival;
    op.resv = &r;
    wal_hook_(op);
  }
  Event e;
  e.time = arrival;
  e.type = EventType::kSubmission;
  e.procs = r.procs;
  std::uint64_t seq = queue_.push(e);
  pending_resv_.emplace(seq, r);
}

bool SchedulerService::cancel_job(double t, int job_id) {
  RESCHED_CHECK(t >= now_, "cancellation in the engine's past");
  // Drain the stream up to the cancellation instant first: events at or
  // before t (task starts, completions — possibly the job's own last one)
  // decide what is still cancellable.
  run_until(t);
  auto it = live_jobs_.find(job_id);
  if (it == live_jobs_.end()) return false;
  if (wal_hook_) {
    WalOp op;
    op.kind = WalOp::Kind::kCancel;
    op.time = t;
    op.job_id = job_id;
    wal_hook_(op);
  }
  OBS_PHASE("online.cancel_job");
  // Version-bumped placements leave their queued events stale — the same
  // debris a repair eviction produces, so cancellation runs in ft mode.
  ft_active_ = true;
  int released = 0;
  for (LiveTask& task : it->second.tasks) {
    if (task.state == LiveTask::State::kDone) continue;
    ++task.version;
    if (!task.placed) continue;
    const resv::Reservation r = task.r.as_reservation();
    profile_->release(r);
    erase_committed(r);
    ++released;
    if (task.state == LiveTask::State::kRunning) {
      // The elapsed [start, t) slice genuinely ran; keep its footprint.
      if (t > task.r.start) {
        const resv::Reservation stub{task.r.start, t, task.r.procs};
        profile_->add(stub);
        committed_.push_back(stub);
      }
      change_usage(t, -task.r.procs);
    }
    task.placed = false;
  }
  // The cancel takes a real sequence number (allocated whether or not a
  // trace is attached, so state evolution is trace-independent) and lands
  // in the (time, seq) total order like any other record.
  const std::uint64_t seq = queue_.allocate_seq();
  if (trace_ != nullptr)
    trace_->write({seq, t, "cancel", job_id, -1, released, 0.0});
  OBS_COUNT("online.cancelled", 1);
  retired_jobs_.insert(job_id);
  live_jobs_.erase(it);
  return true;
}

void SchedulerService::erase_committed(const resv::Reservation& r) {
  for (auto rit = committed_.rbegin(); rit != committed_.rend(); ++rit) {
    if (rit->start == r.start && rit->end == r.end && rit->procs == r.procs) {
      committed_.erase(std::next(rit).base());
      return;
    }
  }
  RESCHED_ASSERT(false, "released placement missing from the committed list");
}

void SchedulerService::set_disruption_handler(DisruptionHandler handler) {
  disruption_handler_ = std::move(handler);
  if (disruption_handler_) ft_active_ = true;
}

void SchedulerService::set_conflict_handler(ConflictHandler handler) {
  conflict_handler_ = std::move(handler);
  if (conflict_handler_) ft_active_ = true;
}

std::uint64_t SchedulerService::submit_disruption(double t, int id) {
  RESCHED_CHECK(t >= now_, "disruption in the engine's past");
  RESCHED_CHECK(ft_active_,
                "register a disruption handler before submitting disruptions");
  Event e;
  e.time = t;
  e.type = EventType::kDisruption;
  e.aux = id;
  return queue_.push(e);
}

void SchedulerService::run_until(double t) {
  while (!queue_.empty() && queue_.peek().time <= t) process(queue_.pop());
  now_ = std::max(now_, t);
}

void SchedulerService::run_all() {
  while (!queue_.empty()) process(queue_.pop());
}

void SchedulerService::process(const Event& e) {
  // Per-event service latency (histogram) and span; queue depth includes
  // the event being processed.
  OBS_PHASE("online.event");
  OBS_HIST("online.queue_depth", queue_.size() + 1);
  now_ = e.time;
  ++events_processed_;
  switch (e.type) {
    case EventType::kSubmission:
      handle_submission(e);
      return;
    case EventType::kReservationStart:
      handle_reservation_start(e);
      return;
    case EventType::kReservationEnd:
      handle_reservation_end(e);
      return;
    case EventType::kTaskCompletion:
      handle_task_completion(e);
      return;
    case EventType::kDisruption:
      trace_event(e, static_cast<double>(e.aux));
      RESCHED_ASSERT(disruption_handler_,
                     "disruption event without a registered handler");
      disruption_handler_(e.time, e.seq, e.aux);
      return;
  }
}

void SchedulerService::handle_reservation_start(const Event& e) {
  if (e.job < 0) {  // external reservation
    auto it = externals_.find(e.aux);
    if (it == externals_.end() || it->second.version != e.version) {
      note_stale(e);
      return;
    }
    it->second.started = true;
    trace_event(e);
    change_usage(e.time, e.procs);
    return;
  }
  LiveTask* task = find_live_task(e.job, e.task);
  if (task == nullptr || task->version != e.version ||
      task->state != LiveTask::State::kPending) {
    note_stale(e);
    return;
  }
  task->state = LiveTask::State::kRunning;
  trace_event(e);
  change_usage(e.time, e.procs);
}

void SchedulerService::handle_reservation_end(const Event& e) {
  auto it = externals_.find(e.aux);
  if (it == externals_.end() || it->second.version != e.version) {
    note_stale(e);
    return;
  }
  externals_.erase(it);
  trace_event(e);
  change_usage(e.time, -e.procs);
}

void SchedulerService::handle_task_completion(const Event& e) {
  LiveTask* task = find_live_task(e.job, e.task);
  if (task == nullptr || task->version != e.version ||
      task->state != LiveTask::State::kRunning) {
    note_stale(e);
    return;
  }
  task->state = LiveTask::State::kDone;
  trace_event(e);
  change_usage(e.time, -e.procs);
  auto it = live_jobs_.find(e.job);
  RESCHED_ASSERT(it != live_jobs_.end() && it->second.remaining_tasks > 0,
                 "task completion for a job that is not live");
  if (--it->second.remaining_tasks == 0) {
    const LiveJob& job = it->second;
    double first_start = kInf, finish = -kInf, cpu_hours = 0.0;
    for (const LiveTask& t : job.tasks) {
      first_start = std::min(first_start, t.r.start);
      finish = std::max(finish, t.r.finish);
      cpu_hours += static_cast<double>(t.r.procs) * (t.r.finish - t.r.start) /
                   3600.0;
    }
    metrics_.record_completion(job.submit, first_start, finish, cpu_hours);
    retired_jobs_.insert(it->first);
    live_jobs_.erase(it);
  }
}

void SchedulerService::note_stale(const Event& e) {
  RESCHED_ASSERT(ft_active_,
                 "version-mismatched event without an active disruption "
                 "handler (engine bug)");
  // Stale events are expected debris of repair: the placement they were
  // pushed for was invalidated (or its job retired) before they fired.
  RESCHED_ASSERT(e.job < 0 || live_jobs_.count(e.job) > 0 ||
                     retired_jobs_.count(e.job) > 0,
                 "stale event for a job the engine never admitted");
  ++stale_events_;
  OBS_COUNT("ft.stale_events", 1);
}

SchedulerService::LiveTask* SchedulerService::find_live_task(int job,
                                                             int task) {
  auto it = live_jobs_.find(job);
  if (it == live_jobs_.end()) return nullptr;
  if (task < 0 || task >= static_cast<int>(it->second.tasks.size()))
    return nullptr;
  return &it->second.tasks[static_cast<std::size_t>(task)];
}

void SchedulerService::handle_submission(const Event& e) {
  if (auto rit = pending_resv_.find(e.seq); rit != pending_resv_.end()) {
    // External advance reservation: committed verbatim on arrival.
    const resv::Reservation r = rit->second;
    pending_resv_.erase(rit);
    trace_event(e, r.start);
    profile_->add(r);
    committed_.push_back(r);
    int ext = next_external_id_++;
    externals_.emplace(ext, ExternalResv{r, 0, false});
    queue_.push(
        {r.start, EventType::kReservationStart, -1, -1, r.procs, 0, ext, 0});
    queue_.push(
        {r.end, EventType::kReservationEnd, -1, -1, r.procs, 0, ext, 0});
    // The reservation was unknown until now; placements made before it
    // arrived may collide with it (§6 blind scenario). Let the repair
    // engine resolve the over-subscription it just caused.
    if (conflict_handler_) conflict_handler_(e.time, e.seq);
    return;
  }
  auto jit = pending_jobs_.find(e.seq);
  RESCHED_ASSERT(jit != pending_jobs_.end(),
                 "submission event without a pending payload");
  JobSubmission job = std::move(jit->second);
  pending_jobs_.erase(jit);
  trace_event(e, job.deadline.value_or(0.0));
  schedule_job(job, e.time, e.seq);
}

void SchedulerService::schedule_job(const JobSubmission& job, double t,
                                    std::uint64_t seq) {
  RESCHED_CHECK(live_jobs_.find(job.job_id) == live_jobs_.end(),
                "job id already live in the engine");
  RESCHED_CHECK(!ft_active_ || retired_jobs_.count(job.job_id) == 0,
                "job id reuse is not allowed in fault-tolerant mode (stale "
                "events could cross generations)");
  OBS_PHASE("online.schedule_job");
  if (config_.compact_calendar) {
    OBS_COUNT("online.compactions", 1);
    profile_->compact(t - config_.history_window);
  }
  int q_hist =
      resv::historical_average_available(*profile_, t, config_.history_window);

  if (!job.deadline) {
    auto res =
        core::schedule_ressched(job.dag, *profile_, t, q_hist, config_.ressched);
    commit_schedule(job, t, seq, res.schedule, Decision::kAccepted, kNaN);
    return;
  }

  // Admission pre-filter: one earliest-fit query per task against the
  // live calendar lower-bounds every task's finish. A requested deadline
  // below the floor is provably unmeetable, so the full backward pass is
  // skipped and the submission goes straight to rejection or counter-offer
  // — exactly where the failed pass would have sent it.
  core::finish_floor_queries(job.dag, profile_->capacity(), t, floor_queries_);
  const double floor =
      core::evaluate_finish_floor(floor_queries_, *profile_, t);
  core::DeadlineResult dl;
  if (*job.deadline >= floor)
    dl = core::schedule_deadline(job.dag, *profile_, t, q_hist, *job.deadline,
                                 config_.deadline);
  if (dl.feasible) {
    commit_schedule(job, t, seq, dl.schedule, Decision::kAccepted, kNaN);
    return;
  }
  if (config_.admission == AdmissionPolicy::kRejectInfeasible) {
    reject(job, t, seq, kNaN);
    return;
  }
  // Counter-offer: binary-search the earliest feasible deadline on the live
  // calendar (§5.3's tightest-deadline machinery) and tentatively commit
  // the schedule achieving it; the submitter's stretch rule then accepts or
  // rolls back.
  auto tight = core::tightest_deadline(job.dag, *profile_, t, q_hist,
                                       config_.deadline, config_.tightest);
  RESCHED_ASSERT(tight.at_deadline.feasible,
                 "tightest-deadline search must end feasible");
  commit_schedule(job, t, seq, tight.at_deadline.schedule,
                  Decision::kCounterOffered, tight.deadline);
}

void SchedulerService::commit_schedule(const JobSubmission& job, double t,
                                       std::uint64_t seq,
                                       const core::AppSchedule& schedule,
                                       Decision decision,
                                       double counter_offer) {
  resv::ReservationList rs;
  rs.reserve(schedule.tasks.size());
  for (const core::TaskReservation& task : schedule.tasks)
    rs.push_back(task.as_reservation());

  // Audit snapshot: a rejected (rolled-back) admission must leave the
  // calendar byte-identical.
  std::vector<std::pair<double, int>> audit_before;
  if (config_.audit_rollback) audit_before = profile_->canonical_steps();

  resv::AvailabilityProfile::CommitToken token = profile_->commit(rs);
  if (decision == Decision::kCounterOffered &&
      std::isfinite(config_.counter_offer_limit) &&
      counter_offer - t > config_.counter_offer_limit * (*job.deadline - t)) {
    profile_->rollback(token);
    if (config_.audit_rollback)
      RESCHED_ASSERT(profile_->canonical_steps() == audit_before,
                     "rollback left the calendar different from the "
                     "pre-commit state");
    reject(job, t, seq, counter_offer);
    return;
  }
  committed_.insert(committed_.end(), rs.begin(), rs.end());

  double start = kInf, finish = -kInf;
  for (const core::TaskReservation& task : schedule.tasks) {
    start = std::min(start, task.start);
    finish = std::max(finish, task.finish);
  }
  LiveJob live{job.dag, job.deadline, job.submit,
               static_cast<int>(schedule.tasks.size()),
               std::vector<LiveTask>()};
  live.tasks.reserve(schedule.tasks.size());
  for (const core::TaskReservation& task : schedule.tasks)
    live.tasks.push_back(LiveTask{task, 0, LiveTask::State::kPending, 1});
  live_jobs_.emplace(job.job_id, std::move(live));

  JobOutcome outcome;
  outcome.job_id = job.job_id;
  outcome.decision = decision;
  outcome.submit = job.submit;
  outcome.requested_deadline = job.deadline.value_or(kNaN);
  outcome.counter_offer = counter_offer;
  outcome.start = start;
  outcome.finish = finish;
  outcome.cpu_hours = schedule.cpu_hours();
  outcome.schedule = schedule;
  outcomes_.push_back(std::move(outcome));

  if (decision == Decision::kCounterOffered)
    OBS_COUNT("online.counter_offered", 1);
  else
    OBS_COUNT("online.accepted", 1);
  metrics_.record_decision(decision);
  trace_decision(seq, t, decision, job.job_id,
                 decision == Decision::kCounterOffered ? counter_offer
                                                       : finish);

  for (int i = 0; i < static_cast<int>(schedule.tasks.size()); ++i) {
    const core::TaskReservation& task = schedule.tasks[i];
    queue_.push({task.start, EventType::kReservationStart, job.job_id, i,
                 task.procs, 0, -1, 0});
    queue_.push({task.finish, EventType::kTaskCompletion, job.job_id, i,
                 task.procs, 0, -1, 0});
  }
}

void SchedulerService::reject(const JobSubmission& job, double t,
                              std::uint64_t seq, double counter_offer) {
  JobOutcome outcome;
  outcome.job_id = job.job_id;
  outcome.decision = Decision::kRejected;
  outcome.submit = job.submit;
  outcome.requested_deadline = job.deadline.value_or(kNaN);
  outcome.counter_offer = counter_offer;
  outcome.start = kNaN;
  outcome.finish = kNaN;
  outcomes_.push_back(std::move(outcome));
  OBS_COUNT("online.rejected", 1);
  metrics_.record_decision(Decision::kRejected);
  trace_decision(seq, t, Decision::kRejected, job.job_id,
                 job.deadline.value_or(kNaN));
}

void SchedulerService::change_usage(double t, int delta) {
  used_procs_ += delta;
  RESCHED_ASSERT(used_procs_ >= 0, "busy processor count went negative");
  metrics_.record_usage(t, used_procs_);
}

void SchedulerService::trace_event(const Event& e, double value) {
  if (!trace_) return;
  trace_->write({e.seq, e.time, to_string(e.type), e.job, e.task, e.procs,
                 value});
}

void SchedulerService::trace_decision(std::uint64_t seq, double t,
                                      Decision decision, int job,
                                      double value) {
  if (!trace_) return;
  trace_->write({seq, t, to_string(decision), job, -1, 0, value});
}

}  // namespace resched::online
