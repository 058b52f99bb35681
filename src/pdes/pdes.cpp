#include "src/pdes/pdes.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/core/tightest_deadline.hpp"
#include "src/obs/obs.hpp"
#include "src/util/error.hpp"

namespace resched::pdes {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void validate(const PdesConfig& config) {
  RESCHED_CHECK(config.shards >= 1, "pdes replay needs >= 1 shard");
  RESCHED_CHECK(config.threads >= 1, "pdes replay needs >= 1 thread");
  RESCHED_CHECK(config.window > 0.0, "lookahead window must be positive");
}

/// Routing decision shared by the parallel driver and the serial oracle —
/// pure arithmetic over barrier-frozen state, so sharing it cannot mask an
/// execution-order bug (those show up as *different frozen state*, which
/// the differential suite catches through the traces).
///
/// Rank shards by the frozen load score; for a deadline job, walk
/// candidates in rank order and take the first whose finish floor
/// (core::evaluate_finish_floor, the engines' own admission pre-filter)
/// admits the deadline. Each of the floor's earliest-fit queries, one per
/// task, counts as a blind probe. When every candidate is provably
/// infeasible the best-ranked shard takes the job anyway: rejections and
/// counter-offers must come from an engine, never from the router's
/// estimate.
///
/// `routed[s]` accumulates the serial work (proc-seconds) routed to
/// shard s since the last barrier and joins the frozen reserved area in
/// shard::load_score. Without it a window's arrivals would pile onto
/// whichever shard looked emptiest when the calendars froze — the
/// per-window +1 queue-depth increments are tiny against typical
/// reserved-area gaps — and the barrier would then stall on that one
/// shard's advance, serializing the replay. The accumulator restores
/// balance while staying pure serial arithmetic: the parallel engine and
/// the oracle walk the identical sequence.
int pick_shard(const online::JobSubmission& job, double wstart,
               const PdesConfig& config,
               const std::vector<const online::SchedulerService*>& engines,
               const std::vector<const resv::AvailabilityProfile*>& calendars,
               std::vector<double>& routed, std::vector<double>& fastest,
               PdesStats& stats) {
  int target = -1;
  if (config.shards == 1) {
    target = 0;
  } else {
    std::vector<std::pair<double, int>> scored;
    scored.reserve(static_cast<std::size_t>(config.shards));
    for (int s = 0; s < config.shards; ++s) {
      const auto i = static_cast<std::size_t>(s);
      const double score =
          shard::load_score(*engines[i], *calendars[i], wstart, routed[i]);
      scored.emplace_back(score, s);
    }
    std::sort(scored.begin(), scored.end());  // score, then shard id

    if (job.deadline) {
      core::fastest_task_times(job.dag, config.service.capacity, fastest);
      for (const auto& [score, s] : scored) {
        const double floor = core::evaluate_finish_floor(
            fastest, *calendars[static_cast<std::size_t>(s)], job.submit);
        stats.blind_probes += fastest.size();
        if (*job.deadline >= floor) {
          target = s;
          break;
        }
        ++stats.floor_skips;
      }
    }
    if (target < 0) target = scored.front().second;
  }
  double work = 0.0;
  for (int v = 0; v < job.dag.size(); ++v) work += job.dag.cost(v).seq_time;
  routed[static_cast<std::size_t>(target)] += work;
  return target;
}

}  // namespace

std::uint64_t ChaosStream::schedule_until(ft::RepairEngine& repair,
                                          double from, double wend) {
  if (!started_) {
    start_ = from;
    gen_to_ = from;
    started_ = true;
  }
  if (wend > gen_to_) {
    // Regenerate the whole campaign out to a doubled horizon; the prefix
    // already consumed is reproduced byte-identically (prefix-extension
    // property), so `consumed_` stays a valid cursor into the new buffer.
    gen_to_ = std::max(wend, start_ + 2.0 * (gen_to_ - start_));
    buffer_ = injector_.generate(start_, gen_to_, /*id_base=*/0);
  }
  std::size_t end = consumed_;
  while (end < buffer_.size() && buffer_[end].time < wend) ++end;
  std::uint64_t scheduled = 0;
  if (end > consumed_) {
    repair.schedule_all({buffer_.begin() +
                             static_cast<std::ptrdiff_t>(consumed_),
                         buffer_.begin() + static_cast<std::ptrdiff_t>(end)});
    scheduled = end - consumed_;
    consumed_ = end;
  }
  return scheduled;
}

PdesReplayEngine::PdesReplayEngine(PdesConfig config)
    : config_(std::move(config)) {
  validate(config_);
}

PdesReplayEngine::~PdesReplayEngine() = default;

const shard::ShardedService& PdesReplayEngine::service() const {
  RESCHED_CHECK(service_ != nullptr, "service() before run()");
  return *service_;
}

PdesResult PdesReplayEngine::run(SubmissionSource& source) {
  RESCHED_CHECK(service_ == nullptr, "run() is one-shot");
  const int n = config_.shards;
  shard::ShardedConfig scfg;
  scfg.shards = n;
  scfg.threads = config_.threads;
  scfg.service = config_.service;
  service_ = std::make_unique<shard::ShardedService>(scfg);

  // One record vector per shard, sized before any writer binds to it; only
  // the worker advancing shard s ever appends to traces[s].
  std::vector<std::vector<online::TraceRecord>> traces;
  std::vector<online::TraceWriter> writers;
  if (config_.capture_trace) {
    traces.resize(static_cast<std::size_t>(n));
    writers.reserve(static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      writers.emplace_back(traces[static_cast<std::size_t>(s)], s);
      service_->engine(s).set_trace(&writers.back());
    }
  }
  if (config_.chaos) {
    chaos_streams_.reserve(static_cast<std::size_t>(n));
    repairs_.reserve(static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      chaos_streams_.emplace_back(
          ft::shard_injector_config(config_.chaos->injector, s));
      repairs_.push_back(std::make_unique<ft::RepairEngine>(
          service_->engine(s), config_.chaos->repair));
    }
  }
  std::vector<const online::SchedulerService*> engines;
  std::vector<const resv::AvailabilityProfile*> calendars;
  for (int s = 0; s < n; ++s) {
    engines.push_back(&service_->engine(s));
    calendars.push_back(&service_->calendar(s));
  }

  PdesResult result;
  PdesStats& stats = result.stats;
  std::vector<double> routed_work(static_cast<std::size_t>(n), 0.0);
  double cursor = -kInf;  // previous barrier (window end)
  for (;;) {
    // Lower bound on the next state change anywhere: the next arrival's
    // submit time or the earliest pending engine event. Conservative —
    // nothing can happen before it, so the window opened from it is safe.
    const std::optional<double> arrival = source.peek_time();
    const double lbts =
        std::min(arrival ? *arrival : kInf, service_->next_event_time());
    if (lbts == kInf) break;  // drained: no arrivals, no pending events
    double wstart = cursor == -kInf ? lbts : cursor;
    if (lbts > wstart + config_.window) {
      // Nothing at all inside the next window span: jump the dead time
      // instead of spinning empty barriers across an idle weekend.
      wstart = lbts;
      ++stats.fast_forwards;
      OBS_COUNT("pdes.fast_forwards", 1);
    }
    const double wend = wstart + config_.window;
    OBS_PHASE("pdes.window");

    // 1. Serial ingestion: route every arrival inside the window against
    //    the barrier-frozen calendars and queue depths. Work routed this
    //    window was all decided by the previous advance, so the
    //    accumulator starts from zero again.
    std::fill(routed_work.begin(), routed_work.end(), 0.0);
    std::uint64_t ingested = 0;
    while (source.peek_time() && *source.peek_time() <= wend) {
      online::JobSubmission job = source.next();
      const int target = pick_shard(job, wstart, config_, engines, calendars,
                                    routed_work, floor_times_, stats);
      service_->engine(target).submit(std::move(job));
      ++ingested;
    }
    stats.arrivals += ingested;

    // 2. Serial chaos: deliver every shard's campaign slice up to the
    //    barrier (the campaign anchors at the first window's start).
    if (config_.chaos)
      for (int s = 0; s < n; ++s)
        stats.disruptions +=
            chaos_streams_[static_cast<std::size_t>(s)].schedule_until(
                *repairs_[static_cast<std::size_t>(s)], wstart, wend);

    // 3. The one parallel step: all shards advance to the barrier.
    service_->advance_window(wend);
    stats.barrier_stall_ns += service_->last_window_stall_ns();
    ++stats.windows;
    OBS_COUNT("pdes.windows", 1);
    OBS_COUNT("pdes.arrivals", ingested);
    OBS_HIST("pdes.window.arrivals", ingested);
#ifndef RESCHED_OBS_DISABLED
    OBS_HIST("pdes.barrier.stall_ns", static_cast<std::uint64_t>(
                                          service_->last_window_stall_ns()));
#endif
    cursor = wend;
  }
  if (cursor != -kInf) stats.horizon = cursor;
  stats.events = service_->events_processed();

  for (int s = 0; s < n; ++s) {
    const online::OnlineMetrics& m = service_->engine(s).metrics();
    result.aggregates.submitted += m.submitted();
    result.aggregates.accepted += m.accepted();
    result.aggregates.counter_offered += m.counter_offered();
    result.aggregates.rejected += m.rejected();
  }
  if (config_.chaos)
    for (int s = 0; s < n; ++s)
      result.chaos.push_back(
          repairs_[static_cast<std::size_t>(s)]->counters());
  if (config_.capture_trace) {
    for (int s = 0; s < n; ++s) service_->engine(s).set_trace(nullptr);
    result.trace = online::merge_traces(std::move(traces));
  }
  return result;
}

PdesResult serial_replay(const PdesConfig& config, SubmissionSource& source) {
  validate(config);
  const int n = config.shards;
  // The oracle's world is deliberately plain: one calendar + bound engine
  // per shard, advanced by a for loop. No ShardedService, no worker pool,
  // no barrier bookkeeping — only the protocol itself.
  std::vector<std::unique_ptr<resv::AvailabilityProfile>> calendars;
  std::vector<std::unique_ptr<online::SchedulerService>> engines;
  for (int s = 0; s < n; ++s) {
    calendars.push_back(
        std::make_unique<resv::AvailabilityProfile>(config.service.capacity));
    engines.push_back(std::make_unique<online::SchedulerService>(
        config.service, *calendars[static_cast<std::size_t>(s)]));
  }

  std::vector<std::vector<online::TraceRecord>> traces;
  std::vector<online::TraceWriter> writers;
  if (config.capture_trace) {
    traces.resize(static_cast<std::size_t>(n));
    writers.reserve(static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      writers.emplace_back(traces[static_cast<std::size_t>(s)], s);
      engines[static_cast<std::size_t>(s)]->set_trace(&writers.back());
    }
  }
  std::vector<ChaosStream> chaos_streams;
  std::vector<std::unique_ptr<ft::RepairEngine>> repairs;
  if (config.chaos)
    for (int s = 0; s < n; ++s) {
      chaos_streams.emplace_back(
          ft::shard_injector_config(config.chaos->injector, s));
      repairs.push_back(std::make_unique<ft::RepairEngine>(
          *engines[static_cast<std::size_t>(s)], config.chaos->repair));
    }
  std::vector<const online::SchedulerService*> engine_views;
  std::vector<const resv::AvailabilityProfile*> calendar_views;
  for (int s = 0; s < n; ++s) {
    engine_views.push_back(engines[static_cast<std::size_t>(s)].get());
    calendar_views.push_back(calendars[static_cast<std::size_t>(s)].get());
  }

  PdesResult result;
  PdesStats& stats = result.stats;
  std::vector<double> fastest;
  std::vector<double> routed_work(static_cast<std::size_t>(n), 0.0);
  double cursor = -kInf;
  for (;;) {
    double next_event = kInf;
    for (int s = 0; s < n; ++s)
      next_event =
          std::min(next_event,
                   engines[static_cast<std::size_t>(s)]->next_event_time());
    const std::optional<double> arrival = source.peek_time();
    const double lbts = std::min(arrival ? *arrival : kInf, next_event);
    if (lbts == kInf) break;
    double wstart = cursor == -kInf ? lbts : cursor;
    if (lbts > wstart + config.window) {
      wstart = lbts;
      ++stats.fast_forwards;
    }
    const double wend = wstart + config.window;

    std::fill(routed_work.begin(), routed_work.end(), 0.0);
    std::uint64_t ingested = 0;
    while (source.peek_time() && *source.peek_time() <= wend) {
      online::JobSubmission job = source.next();
      const int target = pick_shard(job, wstart, config, engine_views,
                                    calendar_views, routed_work, fastest,
                                    stats);
      engines[static_cast<std::size_t>(target)]->submit(std::move(job));
      ++ingested;
    }
    stats.arrivals += ingested;

    if (config.chaos)
      for (int s = 0; s < n; ++s)
        stats.disruptions +=
            chaos_streams[static_cast<std::size_t>(s)].schedule_until(
                *repairs[static_cast<std::size_t>(s)], wstart, wend);

    for (int s = 0; s < n; ++s)
      engines[static_cast<std::size_t>(s)]->run_until(wend);
    ++stats.windows;
    cursor = wend;
  }
  if (cursor != -kInf) stats.horizon = cursor;

  for (int s = 0; s < n; ++s) {
    const online::SchedulerService& e = *engines[static_cast<std::size_t>(s)];
    stats.events += e.events_processed();
    const online::OnlineMetrics& m = e.metrics();
    result.aggregates.submitted += m.submitted();
    result.aggregates.accepted += m.accepted();
    result.aggregates.counter_offered += m.counter_offered();
    result.aggregates.rejected += m.rejected();
  }
  if (config.chaos)
    for (int s = 0; s < n; ++s)
      result.chaos.push_back(repairs[static_cast<std::size_t>(s)]->counters());
  if (config.capture_trace) {
    for (int s = 0; s < n; ++s)
      engines[static_cast<std::size_t>(s)]->set_trace(nullptr);
    result.trace = online::merge_traces(std::move(traces));
  }
  return result;
}

}  // namespace resched::pdes
