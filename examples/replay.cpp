// Workload replay: stream a batch log through the online scheduling
// engines with the conservative time-windowed PDES replay (src/pdes/,
// DESIGN.md §12) and report admissions, per-shard load and — under a
// disruption campaign — repair work and degradation against a clean run.
//
//   ./build/examples/replay [options]
//
// Workload:
//   --swf PATH            stream an SWF archive (default: a synthetic
//                         60-day SDSC Blue Horizon slice on 256 procs)
//   --jobs N              replay the first N jobs, 0 = all of them (2000)
//   --tasks N             tasks per submitted application DAG (10)
//   --deadline-frac F     fraction of jobs submitted with deadlines (0.3)
//   --slack S             deadline = submit + S * serial critical path (3)
//   --seed N              DAG / deadline generation seed (42)
//   --reject              reject infeasible deadlines (default: counter-offer)
//
// Windowed replay:
//   --shards N            platform partitions; must divide the cpus (4)
//   --threads N           worker threads for the window barrier (= shards);
//                         any value yields byte-identical output
//   --window S            lookahead window, seconds (3600); --shards 1 with
//                         a window longer than the log replays through one
//                         plain engine
//   --verify              also run the serial oracle (pdes::serial_replay)
//                         and require identical traces, tallies and stats
//
// Disruption campaign, seeded per shard (a mean of 0 disables the type).
// A campaign has no end: each window receives the disruptions striking
// before its barrier, for as long as any shard has work. Keep --window
// short while one is on — a 1e9 s window asks for 31 years of them.
//   --outage-mean S       mean seconds between processor outages (0)
//   --outage-procs N      max processors per outage (4)
//   --outage-duration S   mean outage duration, seconds (3600)
//   --permanent-prob P    probability an outage is permanent (0); one
//                         that leaves an engine event at its 10-year
//                         stand-in horizon makes the replay fast-forward
//                         there and deliver a decade of disruptions, so
//                         the run may not finish
//   --cancel-mean S       mean seconds between reservation cancellations (0)
//   --extend-mean S       ... extensions (0)
//   --shift-mean S        ... shifts (0)
//   --failure-mean S      mean seconds between task failures (0)
//   --weibull SHAPE       Weibull inter-arrivals with this shape
//                         (default: exponential)
//   --fault-seed N        campaign seed (default: --seed)
//   --max-retries N       kills before a job is abandoned (3)
//   --churn N             incremental re-placements per repair episode
//                         before the fallback reschedule (16)
//   --abandon             abandon deadline jobs whose deadline becomes
//                         unmeetable (default: degrade to best-effort)
//   --baseline            rerun without the campaign and report completed
//                         jobs, makespan inflation and deadline misses
//
// Output:
//   --trace PATH          merged (time, shard, seq) JSONL event trace
//   --metrics PATH        metrics JSONL (counters and histograms); also
//                         prints the metrics table and, under a campaign,
//                         repair-latency percentiles
//   --chrome-trace PATH   spans in Chrome Trace Event format (open in
//                         https://ui.perfetto.dev)
//
// Every option also accepts the --flag=value form. A malformed or
// out-of-range value prints the usage line and exits with status 2.
//
// Examples:
//   ./build/examples/replay --jobs 1000 --shards 4 --threads 4 --verify
//   ./build/examples/replay --swf archive.swf --shards 8 --outage-mean 43200
//       --trace /tmp/replay.jsonl
//   ./build/examples/replay --jobs 150 --outage-mean 6000
//       --failure-mean 8000 --baseline
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/ft/injector.hpp"
#include "src/ft/repair.hpp"
#include "src/obs/obs.hpp"
#include "src/online/replay.hpp"
#include "src/online/trace.hpp"
#include "src/pdes/pdes.hpp"
#include "src/pdes/source.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "src/workload/synth.hpp"

namespace {

using namespace resched;

workload::Log default_log() {
  // The Table-4 platform profile, scaled up to archive-like traffic.
  workload::SyntheticLogSpec spec = workload::sdsc_blue_spec();
  spec.cpus = 256;
  spec.duration_days = 60.0;
  util::Rng rng(7);
  return workload::generate_log(spec, rng);
}

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: replay [--swf PATH] [--jobs N] [--tasks N] [--deadline-frac F]\n"
      "    [--slack S] [--seed N] [--reject] [--shards N] [--threads N]\n"
      "    [--window S] [--verify] [--outage-mean S] [--outage-procs N]\n"
      "    [--outage-duration S] [--permanent-prob P] [--cancel-mean S]\n"
      "    [--extend-mean S] [--shift-mean S] [--failure-mean S]\n"
      "    [--weibull SHAPE] [--fault-seed N] [--max-retries N] [--churn N]\n"
      "    [--abandon] [--baseline] [--trace PATH] [--metrics PATH]\n"
      "    [--chrome-trace PATH]\n");
  std::exit(2);
}

/// The whole token as a number within [lo, hi], or the usage exit.
template <typename T>
T parse_number(const std::string& token, T lo, T hi) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi))
    usage();
  return value;
}

struct Options {
  std::string swf, trace, metrics, chrome_trace;
  online::ReplaySpec spec;
  bool reject = false;
  bool verify = false;
  bool baseline = false;
  pdes::PdesConfig config;
  pdes::PdesChaos chaos;  ///< in config.chaos once a disruption type is on
  std::optional<std::uint64_t> fault_seed;
};

Options parse_args(int argc, char** argv) {
  constexpr int kIntMax = std::numeric_limits<int>::max();
  constexpr double kHuge = std::numeric_limits<double>::max();
  constexpr double kTiny = std::numeric_limits<double>::min();  // i.e. > 0
  constexpr std::uint64_t kSeedMax = std::numeric_limits<std::uint64_t>::max();

  Options o;
  o.spec.app.num_tasks = 10;
  o.spec.app.min_seq_time = 60.0;
  o.spec.app.max_seq_time = 3600.0;
  o.spec.deadline_fraction = 0.3;
  o.spec.deadline_slack = 3.0;
  o.spec.max_jobs = 2000;
  o.config.shards = 4;
  o.config.threads = 0;  // 0 = match --shards
  ft::FaultInjectorConfig& fault = o.chaos.injector;
  ft::RepairPolicy& repair = o.chaos.repair;

  // "--flag=value" splits into "--flag" "value" so both spellings parse.
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.compare(0, 2, "--") == 0 && eq != std::string::npos) {
      args.push_back(arg.substr(0, eq));
      args.push_back(arg.substr(eq + 1));
    } else {
      args.push_back(std::move(arg));
    }
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage();
      return args[++i];
    };
    const auto count = [&](int lo) {
      return parse_number(value(), lo, kIntMax);
    };
    const auto real = [&](double lo, double hi) {
      return parse_number(value(), lo, hi);
    };
    const auto seed = [&] {
      return parse_number<std::uint64_t>(value(), 0, kSeedMax);
    };
    if (flag == "--swf") o.swf = value();
    else if (flag == "--jobs") o.spec.max_jobs = count(0);
    else if (flag == "--tasks") o.spec.app.num_tasks = count(1);
    else if (flag == "--deadline-frac") o.spec.deadline_fraction = real(0, 1);
    else if (flag == "--slack") o.spec.deadline_slack = real(kTiny, kHuge);
    else if (flag == "--seed") o.spec.seed = seed();
    else if (flag == "--reject") o.reject = true;
    else if (flag == "--shards") o.config.shards = count(1);
    else if (flag == "--threads") o.config.threads = count(1);
    else if (flag == "--window") o.config.window = real(kTiny, kHuge);
    else if (flag == "--verify") o.verify = true;
    else if (flag == "--outage-mean") fault.outage_mean = real(0, kHuge);
    else if (flag == "--outage-procs") fault.outage_procs_max = count(1);
    else if (flag == "--outage-duration")
      fault.outage_duration_mean = real(kTiny, kHuge);
    else if (flag == "--permanent-prob") fault.permanent_prob = real(0, 1);
    else if (flag == "--cancel-mean") fault.cancel_mean = real(0, kHuge);
    else if (flag == "--extend-mean") fault.extend_mean = real(0, kHuge);
    else if (flag == "--shift-mean") fault.shift_mean = real(0, kHuge);
    else if (flag == "--failure-mean") fault.task_failure_mean = real(0, kHuge);
    else if (flag == "--weibull") {
      fault.arrival = ft::ArrivalModel::kWeibull;
      fault.weibull_shape = real(kTiny, kHuge);
    } else if (flag == "--fault-seed") o.fault_seed = seed();
    else if (flag == "--max-retries") repair.max_retries = count(0);
    else if (flag == "--churn") repair.churn_budget = count(0);
    else if (flag == "--abandon")
      repair.degrade_deadline_to_best_effort = false;
    else if (flag == "--baseline") o.baseline = true;
    else if (flag == "--trace") o.trace = value();
    else if (flag == "--metrics") o.metrics = value();
    else if (flag == "--chrome-trace") o.chrome_trace = value();
    else usage();
  }

  if (o.config.threads == 0) o.config.threads = o.config.shards;
  o.config.service.admission = o.reject
                                   ? online::AdmissionPolicy::kRejectInfeasible
                                   : online::AdmissionPolicy::kCounterOffer;
  if (fault.outage_mean > 0.0 || fault.cancel_mean > 0.0 ||
      fault.extend_mean > 0.0 || fault.shift_mean > 0.0 ||
      fault.task_failure_mean > 0.0) {
    fault.seed = o.fault_seed.value_or(o.spec.seed);
    o.config.chaos = o.chaos;
  }
  return o;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void print_result(const pdes::PdesResult& result, double elapsed) {
  const pdes::PdesStats& s = result.stats;
  std::printf("  windows=%llu (fast-forwards=%llu)  arrivals=%llu  "
              "events=%llu  horizon=%.1f h\n",
              static_cast<unsigned long long>(s.windows),
              static_cast<unsigned long long>(s.fast_forwards),
              static_cast<unsigned long long>(s.arrivals),
              static_cast<unsigned long long>(s.events), s.horizon / 3600.0);
  std::printf("  blind probes=%llu  floor skips=%llu  disruptions=%llu  "
              "barrier stall=%.1f ms\n",
              static_cast<unsigned long long>(s.blind_probes),
              static_cast<unsigned long long>(s.floor_skips),
              static_cast<unsigned long long>(s.disruptions),
              static_cast<double>(s.barrier_stall_ns) / 1e6);
  std::printf("  admitted: %d submitted, %d accepted, %d counter-offered, "
              "%d rejected\n",
              result.aggregates.submitted, result.aggregates.accepted,
              result.aggregates.counter_offered, result.aggregates.rejected);
  std::printf("  elapsed: %.3f s (%.0f events/s)\n", elapsed,
              elapsed > 0.0 ? static_cast<double>(s.events) / elapsed : 0.0);
}

bool same_deterministic_results(const pdes::PdesResult& a,
                                const pdes::PdesResult& b) {
  if (a.trace.size() != b.trace.size()) return false;
  for (std::size_t i = 0; i < a.trace.size(); ++i)
    if (online::to_json_line(a.trace[i]) != online::to_json_line(b.trace[i]))
      return false;
  const auto agg = [](const shard::ShardedService::Aggregates& x) {
    return std::tuple(x.submitted, x.accepted, x.counter_offered, x.rejected,
                      x.spillovers);
  };
  if (agg(a.aggregates) != agg(b.aggregates)) return false;
  const auto det = [](const pdes::PdesStats& x) {
    // barrier_stall_ns is measured wall-clock — deliberately excluded.
    return std::tuple(x.windows, x.fast_forwards, x.arrivals, x.disruptions,
                      x.blind_probes, x.floor_skips, x.events, x.horizon);
  };
  return det(a.stats) == det(b.stats) && a.chaos == b.chaos;
}

void print_campaign(const std::vector<ft::FtCounters>& shards) {
  const auto total = [&shards](std::uint64_t ft::FtCounters::*field) {
    unsigned long long sum = 0;
    for (const ft::FtCounters& c : shards) sum += c.*field;
    return sum;
  };
  double lost_cpu_hours = 0.0;
  for (const ft::FtCounters& c : shards) lost_cpu_hours += c.lost_cpu_hours;
  using C = ft::FtCounters;
  std::printf("\n--- disruption profile ---\n");
  std::printf("outages            %8llu\n", total(&C::outages));
  std::printf("resv cancels       %8llu\n", total(&C::cancels));
  std::printf("resv extends       %8llu\n", total(&C::extends));
  std::printf("resv shifts        %8llu\n", total(&C::shifts));
  std::printf("task failures      %8llu\n", total(&C::task_failures));
  std::printf("no-op strikes      %8llu\n", total(&C::no_op_disruptions));
  std::printf("\n--- repair ---\n");
  std::printf("episodes           %8llu (%llu fully incremental)\n",
              total(&C::repairs_attempted), total(&C::repairs_succeeded));
  std::printf("tasks re-placed    %8llu (%llu cascades)\n",
              total(&C::tasks_replaced), total(&C::cascades));
  std::printf("tasks killed       %8llu (%.2f cpu-hours lost)\n",
              total(&C::tasks_killed), lost_cpu_hours);
  std::printf("fallback resched   %8llu\n", total(&C::fallback_reschedules));
  std::printf("arrival conflicts  %8llu\n", total(&C::arrival_conflicts));
  std::printf("unresolvable       %8llu\n", total(&C::unresolvable_conflicts));
  std::printf("jobs abandoned     %8llu\n", total(&C::jobs_abandoned));
  std::printf("deadline degraded  %8llu\n", total(&C::deadline_degraded));
}

/// What a campaign costs the workload, from one replay's merged trace
/// (task completions, repair verdicts) and its per-shard outcomes.
struct Degradation {
  double makespan = 0.0;  ///< last task completion (0 when nothing ran)
  int completed = 0;
  int deadline_jobs = 0;    ///< admitted with an effective deadline
  int deadline_misses = 0;  ///< ... whose last task finished after it
};

Degradation degradation(const pdes::PdesResult& result,
                        const shard::ShardedService& service) {
  // Effective deadline per admitted job: the requested one, or the
  // accepted counter-offer. Jobs repair degraded to best-effort or
  // abandoned stop counting.
  Degradation d;
  std::map<int, double> deadlines;
  for (int s = 0; s < service.shards(); ++s) {
    d.completed += service.engine(s).metrics().completed();
    for (const online::JobOutcome& out : service.engine(s).outcomes()) {
      if (out.decision == online::Decision::kAccepted &&
          std::isfinite(out.requested_deadline))
        deadlines[out.job_id] = out.requested_deadline;
      else if (out.decision == online::Decision::kCounterOffered)
        deadlines[out.job_id] = out.counter_offer;
    }
  }
  std::map<int, double> last_done;
  for (const online::TraceRecord& rec : result.trace) {
    if (rec.type == "ft_degrade" || rec.type == "ft_abandon") {
      deadlines.erase(rec.job);
    } else if (rec.type == "task_done") {
      d.makespan = std::max(d.makespan, rec.time);
      double& done = last_done.try_emplace(rec.job, rec.time).first->second;
      done = std::max(done, rec.time);
    }
  }
  for (const auto& [job, deadline] : deadlines) {
    ++d.deadline_jobs;
    const auto it = last_done.find(job);
    if (it != last_done.end() && it->second > deadline) ++d.deadline_misses;
  }
  return d;
}

void print_degradation(const Degradation& run, const Degradation& base) {
  std::printf("\n--- degradation vs. baseline ---\n");
  std::printf("completed jobs     %8d (baseline %d)\n", run.completed,
              base.completed);
  std::printf("makespan           %10.1f s (baseline %.1f s", run.makespan,
              base.makespan);
  if (base.makespan > 0.0)
    std::printf(", inflation %+.1f%%",
                100.0 * (run.makespan / base.makespan - 1.0));
  std::printf(")\n");
  if (run.deadline_jobs > 0)
    std::printf("deadline misses    %8d / %d (%.1f%%; baseline %d / %d)\n",
                run.deadline_misses, run.deadline_jobs,
                100.0 * run.deadline_misses / run.deadline_jobs,
                base.deadline_misses, base.deadline_jobs);
}

std::ofstream open_output(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open output file: " + path);
  return out;
}

}  // namespace

int run(int argc, char** argv) {
  Options o = parse_args(argc, argv);
  pdes::PdesConfig& config = o.config;

  // Source factory: streaming runs are single-pass, so the baseline and
  // --verify legs each get a fresh source (and a re-opened archive).
  workload::Log log;
  if (o.swf.empty()) log = default_log();
  std::ifstream swf_file;
  int cpus = log.cpus;
  auto make_source = [&]() -> std::unique_ptr<pdes::SubmissionSource> {
    if (o.swf.empty()) return std::make_unique<pdes::LogSource>(log, o.spec);
    swf_file.close();
    swf_file.clear();
    swf_file.open(o.swf);
    if (!swf_file) throw Error("cannot open SWF archive: " + o.swf);
    auto source = std::make_unique<pdes::SwfStreamSource>(swf_file, o.swf,
                                                          o.spec);
    cpus = source->header_cpus();
    return source;
  };

  std::unique_ptr<pdes::SubmissionSource> source = make_source();
  if (cpus % config.shards != 0) {
    std::fprintf(stderr, "--shards %d must divide the platform size %d\n",
                 config.shards, cpus);
    return 2;
  }
  config.service.capacity = cpus / config.shards;

  std::printf("Workload: %s — %d processors over %d shards x %d procs\n",
              o.swf.empty() ? log.name.c_str() : o.swf.c_str(), cpus,
              config.shards, config.service.capacity);
  std::printf("Windowed replay (%d threads, window %.0f s, policy: %s%s)...\n",
              config.threads, config.window,
              o.reject ? "reject" : "counter-offer",
              config.chaos ? ", disruption campaign on" : "");

  if (!o.metrics.empty()) {
    obs::registry().reset();
    obs::set_metrics_enabled(true);
  }
  if (!o.chrome_trace.empty()) obs::Tracer::global().start();
  const auto t0 = std::chrono::steady_clock::now();
  pdes::PdesReplayEngine engine(config);
  const pdes::PdesResult result = engine.run(*source);
  const double elapsed = seconds_since(t0);
  obs::Tracer::global().stop();
  obs::set_metrics_enabled(false);

  print_result(result, elapsed);
  std::printf("\n%s", engine.service().summary_table().c_str());
  if (config.chaos) {
    print_campaign(result.chaos);
    if (!o.metrics.empty()) {
      const obs::Histogram& repair = obs::registry().histogram("ft.repair");
      if (repair.count() > 0)
        std::printf("repair latency     p50 %.1f us, p90 %.1f us, "
                    "p99 %.1f us (%llu samples)\n",
                    static_cast<double>(repair.quantile(0.5)) / 1e3,
                    static_cast<double>(repair.quantile(0.9)) / 1e3,
                    static_cast<double>(repair.quantile(0.99)) / 1e3,
                    static_cast<unsigned long long>(repair.count()));
    }
  }

  if (o.baseline) {
    pdes::PdesConfig clean = config;
    clean.chaos.reset();
    std::unique_ptr<pdes::SubmissionSource> clean_source = make_source();
    pdes::PdesReplayEngine clean_engine(clean);
    const pdes::PdesResult base = clean_engine.run(*clean_source);
    print_degradation(degradation(result, engine.service()),
                      degradation(base, clean_engine.service()));
  }

  if (!o.trace.empty()) {
    std::ofstream out = open_output(o.trace);
    for (const online::TraceRecord& r : result.trace)
      out << online::to_json_line(r) << '\n';
    std::printf("\nmerged event trace written to %s (%zu records)\n",
                o.trace.c_str(), result.trace.size());
  }
  if (!o.metrics.empty()) {
    const obs::MetricsSnapshot snap = obs::registry().snapshot();
    std::ofstream out = open_output(o.metrics);
    snap.write_jsonl(out);
    std::ostringstream table;
    snap.write_table(table);
    std::printf("\nwrote %zu counters / %zu histograms to %s\n\n%s",
                snap.counters.size(), snap.histograms.size(),
                o.metrics.c_str(), table.str().c_str());
  }
  if (!o.chrome_trace.empty()) {
    std::ofstream out = open_output(o.chrome_trace);
    obs::Tracer::global().write_chrome_trace(out);
    std::printf("\nwrote %zu spans to %s\n",
                obs::Tracer::global().snapshot().size(),
                o.chrome_trace.c_str());
    if (const std::uint64_t dropped = obs::Tracer::global().dropped())
      std::printf("  (%llu spans dropped: ring saturated)\n",
                  static_cast<unsigned long long>(dropped));
  }

  if (o.verify) {
    std::printf("\nSerial oracle (same windowed protocol, one thread)...\n");
    std::unique_ptr<pdes::SubmissionSource> oracle_source = make_source();
    const auto t1 = std::chrono::steady_clock::now();
    const pdes::PdesResult serial = pdes::serial_replay(config, *oracle_source);
    const double serial_s = seconds_since(t1);
    print_result(serial, serial_s);
    if (!same_deterministic_results(result, serial)) {
      std::fprintf(stderr, "FAIL: parallel and serial replays diverged\n");
      return 1;
    }
    std::printf("\nPASS: %zu trace records byte-identical; speedup %.2fx at "
                "%d threads\n",
                result.trace.size(), elapsed > 0.0 ? serial_s / elapsed : 0.0,
                config.threads);
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
