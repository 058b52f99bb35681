#include "src/shard/sharded_service.hpp"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <sstream>

#include "src/core/tightest_deadline.hpp"
#include "src/obs/obs.hpp"
#include "src/util/error.hpp"

namespace resched::shard {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

double load_score(const online::SchedulerService& engine,
                  const resv::AvailabilityProfile& calendar, double t,
                  double routed_work) {
  return static_cast<double>(engine.queue_size()) +
         (1.0 / 3600.0) * (calendar.reserved_area_after(t) + routed_work);
}

/// One partition: a private calendar and the engine bound to it, plus the
/// router's per-shard tallies. Immovable (the engine holds a pointer to
/// its sibling calendar), hence stored behind unique_ptr.
struct ShardedService::Shard {
  resv::AvailabilityProfile calendar;
  online::SchedulerService engine;

  // Router-maintained tallies (final decisions only; the engine's own
  // metrics additionally count rejected spillover probes).
  int spill_in = 0;

#ifndef RESCHED_OBS_DISABLED
  /// advance_all() duration, written by the worker that advanced this
  /// shard and read by the router after the barrier — never concurrently.
  std::int64_t last_advance_ns = 0;
  /// Lazily resolved `shard.<id>.*` handles (router thread only; workers
  /// never touch the registry, per the DESIGN.md §7 overhead contract).
  /// Each group is registered where it is recorded: every lockstep
  /// advance records the latency, only the lockstep router's decisions
  /// record the rest, so a PDES replay lists the latency alone.
  obs::Histogram* obs_advance = nullptr;
  obs::Counter* obs_accepted = nullptr;
  obs::Counter* obs_counter_offered = nullptr;
  obs::Counter* obs_rejected = nullptr;
  obs::Counter* obs_spill_in = nullptr;
  obs::Histogram* obs_queue_depth = nullptr;

  void resolve_advance_obs(int id) {
    if (obs_advance != nullptr) return;
    obs_advance = &obs::registry().histogram("shard." + std::to_string(id) +
                                             ".event_latency_ns");
  }
  void resolve_router_obs(int id) {
    if (obs_accepted != nullptr) return;
    std::string prefix = "shard." + std::to_string(id) + ".";
    obs::MetricsRegistry& reg = obs::registry();
    obs_accepted = &reg.counter(prefix + "accepted");
    obs_counter_offered = &reg.counter(prefix + "counter_offered");
    obs_rejected = &reg.counter(prefix + "rejected");
    obs_spill_in = &reg.counter(prefix + "spill_in");
    obs_queue_depth = &reg.histogram(prefix + "queue_depth");
  }
#endif

  explicit Shard(const online::ServiceConfig& cfg)
      : calendar(cfg.capacity), engine(cfg, calendar) {}
};

ShardedService::ShardedService(ShardedConfig config)
    : config_(std::move(config)),
      pool_(std::clamp(config_.threads, 1, std::max(config_.shards, 1))) {
  RESCHED_CHECK(config_.shards >= 1, "sharded service needs >= 1 shard");
  RESCHED_CHECK(config_.threads >= 1, "sharded service needs >= 1 thread");
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int s = 0; s < config_.shards; ++s)
    shards_.push_back(std::make_unique<Shard>(config_.service));
}

ShardedService::~ShardedService() = default;

double ShardedService::now() const {
  double t = -kInf;
  for (const std::unique_ptr<Shard>& sh : shards_)
    t = std::max(t, sh->engine.now());
  return t;
}

online::SchedulerService& ShardedService::engine(int s) {
  RESCHED_CHECK(s >= 0 && s < config_.shards, "shard id out of range");
  return shards_[static_cast<std::size_t>(s)]->engine;
}

const online::SchedulerService& ShardedService::engine(int s) const {
  RESCHED_CHECK(s >= 0 && s < config_.shards, "shard id out of range");
  return shards_[static_cast<std::size_t>(s)]->engine;
}

const resv::AvailabilityProfile& ShardedService::calendar(int s) const {
  RESCHED_CHECK(s >= 0 && s < config_.shards, "shard id out of range");
  return shards_[static_cast<std::size_t>(s)]->calendar;
}

void ShardedService::submit(online::JobSubmission job) {
  RESCHED_CHECK(job.submit >= now(),
                "submission in the router's past (submit < now)");
  RESCHED_CHECK(job.dag.size() >= 1, "submitted DAG must have tasks");
  if (job.deadline)
    RESCHED_CHECK(*job.deadline > job.submit,
                  "deadline must lie after the submission instant");
  if (wal_hook_) {
    online::SchedulerService::WalOp op;
    op.kind = online::SchedulerService::WalOp::Kind::kSubmit;
    op.time = job.submit;
    op.job = &job;
    wal_hook_(op);
  }
  if (config_.shards == 1) {  // pass-through: byte-identical to one engine
    shards_[0]->engine.submit(std::move(job));
    return;
  }
  double time = job.submit;
  pending_.emplace(std::make_pair(time, arrival_seq_++), std::move(job));
}

bool ShardedService::cancel_job(double t, int job_id) {
  RESCHED_CHECK(t >= now(), "cancellation in the router's past");
  // Route everything up to t first so the job's owning shard is decided
  // and its engine is at the cancellation instant.
  run_until(t);
  int owner = -1;
  for (int s = 0; s < config_.shards; ++s)
    if (shards_[static_cast<std::size_t>(s)]->engine.live_jobs().count(
            job_id) > 0) {
      owner = s;
      break;
    }
  if (owner < 0) return false;
  if (wal_hook_) {
    online::SchedulerService::WalOp op;
    op.kind = online::SchedulerService::WalOp::Kind::kCancel;
    op.time = t;
    op.job_id = job_id;
    wal_hook_(op);
  }
  return shards_[static_cast<std::size_t>(owner)]->engine.cancel_job(t,
                                                                     job_id);
}

void ShardedService::run_until(double t) {
  if (config_.shards == 1) {
    shards_[0]->engine.run_until(t);
    return;
  }
  while (!pending_.empty() && pending_.begin()->first.first <= t) {
    auto it = pending_.begin();
    double tp = it->first.first;
    online::JobSubmission job = std::move(it->second);
    pending_.erase(it);
    advance_all(tp);
    route_job(tp, std::move(job));
  }
  advance_all(t);
}

void ShardedService::run_all() {
  if (config_.shards == 1) {
    shards_[0]->engine.run_all();
    return;
  }
  while (!pending_.empty()) {
    auto it = pending_.begin();
    double tp = it->first.first;
    online::JobSubmission job = std::move(it->second);
    pending_.erase(it);
    advance_all(tp);
    route_job(tp, std::move(job));
  }
  pool_.run(config_.shards, [this](int s) {
    shards_[static_cast<std::size_t>(s)]->engine.run_all();
  });
}

void ShardedService::advance_window(double t) {
  RESCHED_CHECK(pending_.empty(),
                "advance_window with un-routed arrivals in the router queue");
  advance_all(t);
}

double ShardedService::next_event_time() const {
  double next = kInf;
  for (const std::unique_ptr<Shard>& sh : shards_)
    next = std::min(next, sh->engine.next_event_time());
  return next;
}

std::int64_t ShardedService::last_window_stall_ns() const {
#ifndef RESCHED_OBS_DISABLED
  std::int64_t lo = std::numeric_limits<std::int64_t>::max(), hi = 0;
  for (const std::unique_ptr<Shard>& sh : shards_) {
    lo = std::min(lo, sh->last_advance_ns);
    hi = std::max(hi, sh->last_advance_ns);
  }
  return std::max<std::int64_t>(hi - lo, 0);
#else
  return 0;
#endif
}

void ShardedService::advance_all(double t) {
  pool_.run(config_.shards, [this, t](int s) {
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
#ifndef RESCHED_OBS_DISABLED
    std::int64_t start = obs::now_ns();
    sh.engine.run_until(t);
    sh.last_advance_ns = obs::now_ns() - start;
#else
    sh.engine.run_until(t);
#endif
  });
#ifndef RESCHED_OBS_DISABLED
  if (obs::metrics_enabled()) {
    for (int s = 0; s < config_.shards; ++s) {
      Shard& sh = *shards_[static_cast<std::size_t>(s)];
      sh.resolve_advance_obs(s);
      sh.obs_advance->record(static_cast<std::uint64_t>(
          std::max<std::int64_t>(sh.last_advance_ns, 0)));
    }
  }
#endif
}

std::vector<int> ShardedService::ranked_shards(double t) const {
  std::vector<std::pair<double, int>> scored;
  scored.reserve(shards_.size());
  for (int s = 0; s < config_.shards; ++s) {
    const Shard& sh = *shards_[static_cast<std::size_t>(s)];
    scored.emplace_back(load_score(sh.engine, sh.calendar, t), s);
  }
  std::sort(scored.begin(), scored.end());  // score, then shard id
  std::vector<int> order;
  order.reserve(scored.size());
  for (const auto& [score, s] : scored) order.push_back(s);
  return order;
}

void ShardedService::route_job(double t, online::JobSubmission job) {
  RoutingOutcome out;
  out.job_id = job.job_id;
  out.time = t;
  const std::vector<int> candidates = ranked_shards(t);
  out.first_choice = candidates.front();

  // The floor's inputs depend on the job and the (uniform) shard capacity
  // — not on any calendar — so the spillover walk builds them once and
  // evaluates them against each candidate's calendar.
  if (job.deadline)
    core::fastest_task_times(job.dag, config_.service.capacity, floor_times_);

  for (std::size_t k = 0; k < candidates.size(); ++k) {
    int s = candidates[k];
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    bool last = k + 1 == candidates.size();
    ++out.probes;
    // Tier 1 — read-only floor probe: when the calendar-aware lower bound
    // already exceeds the deadline, no admission attempt on this shard can
    // accept the request; spill without touching the engine. The last
    // candidate is always tried for real so a counter-offer / rejection
    // comes from an engine, never from the router's estimate.
    if (!last && job.deadline &&
        core::evaluate_finish_floor(floor_times_, sh.calendar, t) >
            *job.deadline)
      continue;
    // Tier 2 — real admission: submit and process synchronously. A
    // rejection leaves the shard's calendar untouched — it commits nothing,
    // or rolls back an over-limit counter-offer through the commit token —
    // so the next candidate sees a consistent world.
    std::size_t before = sh.engine.outcomes().size();
    sh.engine.submit(
        online::JobSubmission{job.job_id, job.submit, job.dag, job.deadline});
    sh.engine.run_until(t);
    RESCHED_ASSERT(sh.engine.outcomes().size() == before + 1,
                   "synchronous admission produced no outcome");
    const online::JobOutcome& decided = sh.engine.outcomes().back();
    RESCHED_ASSERT(decided.job_id == job.job_id,
                   "outcome does not match the routed job");
    out.shard = s;
    out.decision = decided.decision;
    if (decided.decision != online::Decision::kRejected) break;
  }
  out.spilled = out.shard != out.first_choice;
  record_outcome(out);
}

void ShardedService::record_outcome(const RoutingOutcome& outcome) {
  ++aggregates_.submitted;
  switch (outcome.decision) {
    case online::Decision::kAccepted:
      ++aggregates_.accepted;
      break;
    case online::Decision::kCounterOffered:
      ++aggregates_.counter_offered;
      break;
    case online::Decision::kRejected:
      ++aggregates_.rejected;
      break;
  }
  if (outcome.spilled) {
    ++aggregates_.spillovers;
    ++shards_[static_cast<std::size_t>(outcome.shard)]->spill_in;
  }
  routing_.push_back(outcome);
#ifndef RESCHED_OBS_DISABLED
  if (obs::metrics_enabled()) {
    Shard& sh = *shards_[static_cast<std::size_t>(outcome.shard)];
    sh.resolve_router_obs(outcome.shard);
    switch (outcome.decision) {
      case online::Decision::kAccepted:
        sh.obs_accepted->add(1);
        break;
      case online::Decision::kCounterOffered:
        sh.obs_counter_offered->add(1);
        break;
      case online::Decision::kRejected:
        sh.obs_rejected->add(1);
        break;
    }
    if (outcome.spilled) sh.obs_spill_in->add(1);
    sh.obs_queue_depth->record(sh.engine.queue_size());
  }
#endif
}

ShardedService::Aggregates ShardedService::aggregates() const {
  if (config_.shards == 1) {  // pass-through: the engine decided everything
    const online::OnlineMetrics& m = shards_[0]->engine.metrics();
    Aggregates a;
    a.submitted = m.submitted();
    a.accepted = m.accepted();
    a.counter_offered = m.counter_offered();
    a.rejected = m.rejected();
    return a;
  }
  return aggregates_;
}

std::uint64_t ShardedService::events_processed() const {
  std::uint64_t total = 0;
  for (const std::unique_ptr<Shard>& sh : shards_)
    total += sh->engine.events_processed();
  return total;
}

std::string ShardedService::summary_table() const {
  // Admission columns are the engines' own views: in a spillover run a
  // rejected probe counts on the probing shard even when the job later
  // landed elsewhere (aggregates() has the deduplicated totals).
  std::ostringstream os;
  os << std::left << std::setw(6) << "shard" << std::right << std::setw(10)
     << "events" << std::setw(10) << "submit" << std::setw(10) << "accept"
     << std::setw(10) << "counter" << std::setw(10) << "reject"
     << std::setw(10) << "spill-in" << std::setw(10) << "queue"
     << std::setw(14) << "backlog-cpu-h" << '\n';
  for (int s = 0; s < config_.shards; ++s) {
    const Shard& sh = *shards_[static_cast<std::size_t>(s)];
    const online::OnlineMetrics& m = sh.engine.metrics();
    double backlog = sh.calendar.reserved_area_after(sh.engine.now()) / 3600.0;
    os << std::left << std::setw(6) << s << std::right << std::setw(10)
       << sh.engine.events_processed() << std::setw(10) << m.submitted()
       << std::setw(10) << m.accepted() << std::setw(10)
       << m.counter_offered() << std::setw(10) << m.rejected()
       << std::setw(10) << sh.spill_in << std::setw(10)
       << sh.engine.queue_size() << std::setw(14) << std::fixed
       << std::setprecision(2) << backlog << '\n';
    os.unsetf(std::ios::fixed);
  }
  return os.str();
}

}  // namespace resched::shard
