// Online replay: drive the event-driven scheduling engine with a workload
// stream end-to-end and report online service metrics.
//
//   ./build/examples/online_replay [options]
//     --swf PATH          replay an SWF log (default: a synthetic log)
//     --jobs N            truncate the stream to its first N jobs (200)
//     --tasks N           tasks per submitted application DAG (10)
//     --deadline-frac F   fraction of jobs submitted with deadlines (0.3)
//     --slack S           deadline = submit + S * serial critical path (3)
//     --reject            reject infeasible deadlines (default: counter-offer)
//     --trace PATH        write the JSONL event trace for replay/debugging
//     --seed N            DAG / deadline generation seed (42)
//     --shards N          run the sharded service: the platform is split
//                         into N equal partitions with load-aware routing
//                         and cross-shard spillover (DESIGN.md §9); the
//                         trace is the deterministic (time, shard, seq)
//                         merge of the per-shard traces
//     --threads N         worker threads for sharded replay (default 1;
//                         any value yields byte-identical output)
//
// Options also accept the --flag=value form.
//
// Examples:
//   ./build/examples/online_replay --jobs 100 --trace /tmp/online.jsonl
//   ./build/examples/online_replay --shards=4 --threads=4 --jobs 500
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/online/replay.hpp"
#include "src/online/service.hpp"
#include "src/online/trace.hpp"
#include "src/shard/sharded_service.hpp"
#include "src/util/rng.hpp"
#include "src/workload/swf.hpp"
#include "src/workload/synth.hpp"

namespace {

resched::workload::Log default_log() {
  // A laptop-scale slice of the SDSC Blue Horizon profile: enough traffic
  // to load the calendar without making the demo minutes-long.
  resched::workload::SyntheticLogSpec spec =
      resched::workload::sdsc_blue_spec();
  spec.cpus = 128;
  spec.duration_days = 7.0;
  resched::util::Rng rng(7);
  return resched::workload::generate_log(spec, rng);
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--swf PATH] [--jobs N] [--tasks N] "
                       "[--deadline-frac F] [--slack S] [--reject] "
                       "[--trace PATH] [--seed N] [--shards N] "
                       "[--threads N]\n", argv0);
  std::exit(2);
}

/// Expands "--flag=value" arguments into "--flag" "value" pairs so both
/// spellings parse identically.
std::vector<std::string> expand_args(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::size_t eq = arg.find('=');
    if (arg.size() > 2 && arg.compare(0, 2, "--") == 0 &&
        eq != std::string::npos) {
      args.push_back(arg.substr(0, eq));
      args.push_back(arg.substr(eq + 1));
    } else {
      args.push_back(std::move(arg));
    }
  }
  return args;
}

}  // namespace

int run(int argc, char** argv) {
  using namespace resched;

  std::string swf_path, trace_path;
  online::ReplaySpec spec;
  spec.app.num_tasks = 10;
  spec.app.min_seq_time = 60.0;
  spec.app.max_seq_time = 3600.0;
  spec.deadline_fraction = 0.3;
  spec.deadline_slack = 3.0;
  spec.max_jobs = 200;
  bool reject_infeasible = false;
  int shards = 0;  // 0 = classic single-engine mode
  int threads = 1;

  std::vector<std::string> args = expand_args(argc, argv);
  for (std::size_t i = 0; i < args.size(); ++i) {
    auto value = [&]() -> const char* {
      if (i + 1 >= args.size()) usage(argv[0]);
      return args[++i].c_str();
    };
    const std::string& arg = args[i];
    if (arg == "--swf") swf_path = value();
    else if (arg == "--jobs") spec.max_jobs = std::atoi(value());
    else if (arg == "--tasks") spec.app.num_tasks = std::atoi(value());
    else if (arg == "--deadline-frac")
      spec.deadline_fraction = std::atof(value());
    else if (arg == "--slack") spec.deadline_slack = std::atof(value());
    else if (arg == "--reject") reject_infeasible = true;
    else if (arg == "--trace") trace_path = value();
    else if (arg == "--seed")
      spec.seed = static_cast<std::uint64_t>(std::atoll(value()));
    else if (arg == "--shards") shards = std::atoi(value());
    else if (arg == "--threads") threads = std::atoi(value());
    else usage(argv[0]);
  }
  if (shards < 0 || threads < 1) usage(argv[0]);

  workload::Log log =
      swf_path.empty() ? default_log() : workload::read_swf_file(swf_path);
  std::printf("Workload: %s — %zu jobs on %d processors\n", log.name.c_str(),
              log.jobs.size(), log.cpus);

  if (shards > 0) {
    if (log.cpus % shards != 0) {
      std::fprintf(stderr, "--shards %d must divide the platform size %d\n",
                   shards, log.cpus);
      return 2;
    }
    shard::ShardedConfig config;
    config.shards = shards;
    config.threads = threads;
    config.service.capacity = log.cpus / shards;
    config.service.admission = reject_infeasible
                                   ? online::AdmissionPolicy::kRejectInfeasible
                                   : online::AdmissionPolicy::kCounterOffer;
    shard::ShardedService service(config);

    // Per-shard traces collect as records in memory; the file gets their
    // deterministic (time, shard, seq) merge.
    std::vector<std::vector<online::TraceRecord>> traces(
        static_cast<std::size_t>(shards));
    std::vector<online::TraceWriter> writers;
    writers.reserve(static_cast<std::size_t>(shards));
    if (!trace_path.empty()) {
      for (int s = 0; s < shards; ++s) {
        writers.emplace_back(traces[static_cast<std::size_t>(s)], s);
        service.engine(s).set_trace(&writers.back());
      }
    }

    auto stream = online::submissions_from_log(log, spec);
    std::printf("Replaying %zu DAG submissions over %d shards x %d procs "
                "(%d threads, policy: %s)...\n",
                stream.size(), shards, config.service.capacity, threads,
                reject_infeasible ? "reject" : "counter-offer");
    for (auto& sub : stream) service.submit(std::move(sub));
    service.run_all();

    std::printf("\n%s", service.summary_table().c_str());
    shard::ShardedService::Aggregates agg = service.aggregates();
    std::printf("\ntotal: %d submitted, %d accepted, %d counter-offered, "
                "%d rejected, %d spillovers, %llu events\n",
                agg.submitted, agg.accepted, agg.counter_offered,
                agg.rejected, agg.spillovers,
                static_cast<unsigned long long>(service.events_processed()));

    if (!trace_path.empty()) {
      std::ofstream trace_file(trace_path);
      if (!trace_file) {
        std::fprintf(stderr, "cannot open trace file: %s\n",
                     trace_path.c_str());
        return 1;
      }
      for (const online::TraceRecord& r :
           online::merge_traces(std::move(traces)))
        trace_file << online::to_json_line(r) << '\n';
      std::printf("merged event trace written to %s\n", trace_path.c_str());
    }
    return 0;
  }

  online::ServiceConfig config;
  config.capacity = log.cpus;
  config.admission = reject_infeasible
                         ? online::AdmissionPolicy::kRejectInfeasible
                         : online::AdmissionPolicy::kCounterOffer;
  online::SchedulerService service(config);

  std::ofstream trace_file;
  std::optional<online::TraceWriter> writer;
  if (!trace_path.empty()) {
    trace_file.open(trace_path);
    if (!trace_file) {
      std::fprintf(stderr, "cannot open trace file: %s\n", trace_path.c_str());
      return 1;
    }
    writer.emplace(trace_file);
    service.set_trace(&*writer);
  }

  auto stream = online::submissions_from_log(log, spec);
  std::printf("Replaying %zu DAG submissions (%d tasks each, %.0f%% with "
              "deadlines, policy: %s)...\n",
              stream.size(), spec.app.num_tasks,
              100.0 * spec.deadline_fraction,
              reject_infeasible ? "reject" : "counter-offer");
  for (auto& sub : stream) service.submit(std::move(sub));
  service.run_all();

  std::ostringstream table;
  service.metrics().summary_table().print(table);
  std::printf("\n%s", table.str().c_str());
  double span = service.now();
  if (span > 0.0)
    std::printf("\nutilization over [0, %.1f h]: %.1f%%\n", span / 3600.0,
                100.0 * service.metrics().utilization(0.0, span));
  if (!trace_path.empty())
    std::printf("event trace written to %s\n", trace_path.c_str());
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
