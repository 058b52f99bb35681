// Fault-tolerance workbench: replay a workload under a disruption profile
// and report degradation metrics against the undisrupted baseline.
//
//   ./build/examples/ft_tool inject [options]
//
// Workload (same knobs as online_replay):
//     --swf PATH          replay an SWF log (default: a synthetic log)
//     --jobs N            truncate the stream to its first N jobs (150)
//     --tasks N           tasks per submitted application DAG (10)
//     --deadline-frac F   fraction of jobs submitted with deadlines (0.3)
//     --slack S           deadline = submit + S * serial critical path (3)
//     --seed N            DAG / deadline generation seed (42)
//
// Disruption profile (a mean of 0 disables that type):
//     --outage-mean S     mean seconds between processor outages (6000)
//     --outage-procs N    max processors per outage (capacity / 4)
//     --outage-duration S mean outage duration, seconds (3600)
//     --permanent-prob P  probability an outage is permanent (0)
//     --cancel-mean S     mean seconds between reservation cancellations (0)
//     --extend-mean S     ... extensions (0)
//     --shift-mean S      ... shifts (0)
//     --failure-mean S    mean seconds between task failures (8000)
//     --weibull SHAPE     Weibull inter-arrivals with this shape
//                         (default: exponential)
//     --fault-seed N      injector seed (1)
//
// Repair policy:
//     --max-retries N     kills before a job is abandoned (3)
//     --churn N           incremental re-placements per episode before the
//                         fallback reschedule (16)
//     --abandon           abandon deadline jobs whose deadline becomes
//                         unmeetable (default: degrade to best-effort)
//
// Output:
//     --trace PATH        write the disrupted run's JSONL event trace
//
// Example:
//   ./build/examples/ft_tool inject --jobs 80 --outage-mean 4000
//       --failure-mean 5000 --trace /tmp/disrupted.jsonl
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/ft/injector.hpp"
#include "src/ft/repair.hpp"
#include "src/obs/obs.hpp"
#include "src/online/replay.hpp"
#include "src/online/service.hpp"
#include "src/online/trace.hpp"
#include "src/util/rng.hpp"
#include "src/workload/swf.hpp"
#include "src/workload/synth.hpp"

namespace {

using namespace resched;

workload::Log default_log() {
  workload::SyntheticLogSpec spec = workload::sdsc_blue_spec();
  spec.cpus = 128;
  spec.duration_days = 7.0;
  util::Rng rng(7);
  return workload::generate_log(spec, rng);
}

struct RunResult {
  double makespan = 0.0;  ///< last task completion (0 when nothing ran)
  int completed = 0;
  int deadline_jobs = 0;    ///< admitted with an effective deadline
  int deadline_misses = 0;  ///< ... that finished after it
};

/// Replays `stream` on a fresh service; `engine_policy` non-null attaches a
/// repair engine fed with `campaign`. Returns degradation-relevant facts
/// derived from the event trace (the post-repair truth — JobOutcome keeps
/// admission-time placements only).
RunResult run_stream(const online::ServiceConfig& config,
                     const std::vector<online::JobSubmission>& stream,
                     const ft::RepairPolicy* engine_policy,
                     std::span<const ft::Disruption> campaign,
                     ft::FtCounters* counters_out,
                     std::vector<ft::JobDisposition>* dispositions_out,
                     std::vector<online::TraceRecord>* trace_out) {
  online::SchedulerService service(config);
  std::optional<ft::RepairEngine> engine;
  if (engine_policy != nullptr) {
    engine.emplace(service, *engine_policy);
    engine->schedule_all(campaign);
  }
  std::vector<online::TraceRecord> trace;
  online::TraceWriter writer(trace);
  service.set_trace(&writer);
  for (const online::JobSubmission& sub : stream) service.submit(sub);
  service.run_all();

  // Effective deadline per admitted job: the requested one, or the accepted
  // counter-offer. Jobs degraded to best-effort by repair stop counting.
  std::map<int, double> deadlines;
  for (const online::JobOutcome& out : service.outcomes()) {
    if (out.decision == online::Decision::kAccepted &&
        std::isfinite(out.requested_deadline))
      deadlines[out.job_id] = out.requested_deadline;
    else if (out.decision == online::Decision::kCounterOffered)
      deadlines[out.job_id] = out.counter_offer;
  }
  if (engine) {
    for (const ft::JobDisposition& d : engine->dispositions())
      deadlines.erase(d.job);
    if (counters_out != nullptr) *counters_out = engine->counters();
    if (dispositions_out != nullptr) *dispositions_out = engine->dispositions();
  }

  RunResult result;
  std::map<int, double> last_done;
  for (const online::TraceRecord& rec : trace) {
    if (rec.type != "task_done") continue;
    result.makespan = std::max(result.makespan, rec.time);
    auto [it, fresh] = last_done.try_emplace(rec.job, rec.time);
    if (!fresh) it->second = std::max(it->second, rec.time);
  }
  result.completed = service.metrics().completed();
  for (const auto& [job, deadline] : deadlines) {
    ++result.deadline_jobs;
    auto it = last_done.find(job);
    if (it != last_done.end() && it->second > deadline)
      ++result.deadline_misses;
  }
  if (trace_out != nullptr) *trace_out = std::move(trace);
  return result;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s inject [--swf PATH] [--jobs N] [--tasks N]\n"
               "    [--deadline-frac F] [--slack S] [--seed N]\n"
               "    [--outage-mean S] [--outage-procs N] [--outage-duration S]\n"
               "    [--permanent-prob P] [--cancel-mean S] [--extend-mean S]\n"
               "    [--shift-mean S] [--failure-mean S] [--weibull SHAPE]\n"
               "    [--fault-seed N] [--max-retries N] [--churn N] [--abandon]\n"
               "    [--trace PATH]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int run(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "inject") != 0) usage(argv[0]);

  std::string swf_path, trace_path;
  online::ReplaySpec spec;
  spec.app.num_tasks = 10;
  spec.app.min_seq_time = 60.0;
  spec.app.max_seq_time = 3600.0;
  spec.deadline_fraction = 0.3;
  spec.deadline_slack = 3.0;
  spec.max_jobs = 150;

  ft::FaultInjectorConfig fault;
  fault.outage_mean = 6000.0;
  fault.task_failure_mean = 8000.0;
  fault.outage_procs_max = 0;  // 0 = capacity / 4, resolved below
  ft::RepairPolicy policy;

  for (int i = 2; i < argc; ++i) {
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--swf")) swf_path = value();
    else if (!std::strcmp(argv[i], "--jobs")) spec.max_jobs = std::atoi(value());
    else if (!std::strcmp(argv[i], "--tasks"))
      spec.app.num_tasks = std::atoi(value());
    else if (!std::strcmp(argv[i], "--deadline-frac"))
      spec.deadline_fraction = std::atof(value());
    else if (!std::strcmp(argv[i], "--slack"))
      spec.deadline_slack = std::atof(value());
    else if (!std::strcmp(argv[i], "--seed"))
      spec.seed = static_cast<std::uint64_t>(std::atoll(value()));
    else if (!std::strcmp(argv[i], "--outage-mean"))
      fault.outage_mean = std::atof(value());
    else if (!std::strcmp(argv[i], "--outage-procs"))
      fault.outage_procs_max = std::atoi(value());
    else if (!std::strcmp(argv[i], "--outage-duration"))
      fault.outage_duration_mean = std::atof(value());
    else if (!std::strcmp(argv[i], "--permanent-prob"))
      fault.permanent_prob = std::atof(value());
    else if (!std::strcmp(argv[i], "--cancel-mean"))
      fault.cancel_mean = std::atof(value());
    else if (!std::strcmp(argv[i], "--extend-mean"))
      fault.extend_mean = std::atof(value());
    else if (!std::strcmp(argv[i], "--shift-mean"))
      fault.shift_mean = std::atof(value());
    else if (!std::strcmp(argv[i], "--failure-mean"))
      fault.task_failure_mean = std::atof(value());
    else if (!std::strcmp(argv[i], "--weibull")) {
      fault.arrival = ft::ArrivalModel::kWeibull;
      fault.weibull_shape = std::atof(value());
    } else if (!std::strcmp(argv[i], "--fault-seed"))
      fault.seed = static_cast<std::uint64_t>(std::atoll(value()));
    else if (!std::strcmp(argv[i], "--max-retries"))
      policy.max_retries = std::atoi(value());
    else if (!std::strcmp(argv[i], "--churn"))
      policy.churn_budget = std::atoi(value());
    else if (!std::strcmp(argv[i], "--abandon"))
      policy.degrade_deadline_to_best_effort = false;
    else if (!std::strcmp(argv[i], "--trace")) trace_path = value();
    else usage(argv[0]);
  }

  workload::Log log =
      swf_path.empty() ? default_log() : workload::read_swf_file(swf_path);
  std::printf("Workload: %s — %zu jobs on %d processors\n", log.name.c_str(),
              log.jobs.size(), log.cpus);

  online::ServiceConfig config;
  config.capacity = log.cpus;
  if (fault.outage_procs_max <= 0)
    fault.outage_procs_max = std::max(1, log.cpus / 4);
  const auto stream = online::submissions_from_log(log, spec);

  // Repair-latency percentiles come from the ft.repair phase histogram.
  obs::set_metrics_enabled(true);

  std::printf("Baseline (no disruptions): %zu submissions...\n",
              stream.size());
  const RunResult baseline =
      run_stream(config, stream, nullptr, {}, nullptr, nullptr, nullptr);

  // Campaign horizon: cover the whole baseline schedule plus slack so late
  // repairs are also exposed to disruptions.
  const double horizon = std::max(3600.0, baseline.makespan * 1.25);
  const auto campaign = ft::FaultInjector(fault).generate(0.0, horizon);
  std::printf("Disrupted: %zu disruptions over [0, %.1f h]...\n",
              campaign.size(), horizon / 3600.0);

  ft::FtCounters counters;
  std::vector<ft::JobDisposition> dispositions;
  std::vector<online::TraceRecord> trace;
  const RunResult disrupted =
      run_stream(config, stream, &policy, campaign, &counters, &dispositions,
                 trace_path.empty() ? nullptr : &trace);

  std::printf("\n--- disruption profile ---\n");
  std::printf("outages            %8llu\n",
              static_cast<unsigned long long>(counters.outages));
  std::printf("resv cancels       %8llu\n",
              static_cast<unsigned long long>(counters.cancels));
  std::printf("resv extends       %8llu\n",
              static_cast<unsigned long long>(counters.extends));
  std::printf("resv shifts        %8llu\n",
              static_cast<unsigned long long>(counters.shifts));
  std::printf("task failures      %8llu\n",
              static_cast<unsigned long long>(counters.task_failures));
  std::printf("no-op strikes      %8llu\n",
              static_cast<unsigned long long>(counters.no_op_disruptions));

  std::printf("\n--- repair ---\n");
  std::printf("episodes           %8llu (%llu fully incremental)\n",
              static_cast<unsigned long long>(counters.repairs_attempted),
              static_cast<unsigned long long>(counters.repairs_succeeded));
  std::printf("tasks re-placed    %8llu (%llu cascades)\n",
              static_cast<unsigned long long>(counters.tasks_replaced),
              static_cast<unsigned long long>(counters.cascades));
  std::printf("tasks killed       %8llu (%.2f cpu-hours lost)\n",
              static_cast<unsigned long long>(counters.tasks_killed),
              counters.lost_cpu_hours);
  std::printf("fallback resched   %8llu\n",
              static_cast<unsigned long long>(counters.fallback_reschedules));
  std::printf("arrival conflicts  %8llu\n",
              static_cast<unsigned long long>(counters.arrival_conflicts));
  std::printf("unresolvable       %8llu\n",
              static_cast<unsigned long long>(counters.unresolvable_conflicts));
  std::printf("jobs abandoned     %8llu\n",
              static_cast<unsigned long long>(counters.jobs_abandoned));
  std::printf("deadline degraded  %8llu\n",
              static_cast<unsigned long long>(counters.deadline_degraded));

  const obs::Histogram& repair_hist = obs::registry().histogram("ft.repair");
  if (repair_hist.count() > 0) {
    std::printf("repair latency     p50 %.1f us, p90 %.1f us, p99 %.1f us "
                "(%llu samples)\n",
                static_cast<double>(repair_hist.quantile(0.5)) / 1e3,
                static_cast<double>(repair_hist.quantile(0.9)) / 1e3,
                static_cast<double>(repair_hist.quantile(0.99)) / 1e3,
                static_cast<unsigned long long>(repair_hist.count()));
  }

  std::printf("\n--- degradation ---\n");
  std::printf("completed jobs     %8d (baseline %d)\n", disrupted.completed,
              baseline.completed);
  std::printf("makespan           %10.1f s (baseline %.1f s", disrupted.makespan,
              baseline.makespan);
  if (baseline.makespan > 0.0)
    std::printf(", inflation %+.1f%%",
                100.0 * (disrupted.makespan / baseline.makespan - 1.0));
  std::printf(")\n");
  if (disrupted.deadline_jobs > 0)
    std::printf("deadline misses    %8d / %d (%.1f%%; baseline %d / %d)\n",
                disrupted.deadline_misses, disrupted.deadline_jobs,
                100.0 * disrupted.deadline_misses / disrupted.deadline_jobs,
                baseline.deadline_misses, baseline.deadline_jobs);

  if (!trace_path.empty()) {
    std::ofstream trace_file(trace_path);
    if (!trace_file) {
      std::fprintf(stderr, "cannot open trace file: %s\n", trace_path.c_str());
      return 1;
    }
    for (const online::TraceRecord& r : trace)
      trace_file << online::to_json_line(r) << '\n';
    std::printf("disrupted event trace written to %s\n", trace_path.c_str());
  }
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
