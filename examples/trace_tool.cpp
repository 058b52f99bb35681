// Workload trace utility: generate, inspect, and convert the batch logs
// behind the paper's evaluation (§3.2, Tables 2-3). Replaying a log through
// the schedulers is examples/replay.
//
// Usage:
//   trace_tool stats [swf-file]     Table 3 metrics for a log (default:
//                                   every built-in synthetic platform)
//   trace_tool gen <platform> <out.swf>
//                                   write a synthetic log as SWF; platform
//                                   is one of ctc, osc, blue, ds, g5k
//   trace_tool resv <platform> <phi> <linear|expo|real>
//                                   sample a reservation schedule and print
//                                   its per-day reservation counts
//   trace_tool merge_traces <out.jsonl> <in.jsonl>...
//                                   merge per-shard engine traces (JSONL,
//                                   src/online/trace.hpp schema) into one
//                                   stream under the deterministic
//                                   (time, shard, seq) total order; inputs
//                                   without shard tags inherit their
//                                   argument position as shard id. "-"
//                                   writes the merge to stdout.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/online/trace.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "src/workload/stats.hpp"
#include "src/workload/swf.hpp"
#include "src/workload/synth.hpp"
#include "src/workload/tagging.hpp"

namespace {

using namespace resched;
constexpr double kDay = 86400.0;

workload::SyntheticLogSpec spec_for(const std::string& name) {
  if (name == "ctc") return workload::ctc_sp2_spec();
  if (name == "osc") return workload::osc_cluster_spec();
  if (name == "blue") return workload::sdsc_blue_spec();
  if (name == "ds") return workload::sdsc_ds_spec();
  if (name == "g5k") return workload::grid5000_spec();
  throw resched::Error("unknown platform '" + name + "' (ctc|osc|blue|ds|g5k)");
}

void print_stats(const workload::Log& log) {
  auto s = workload::compute_log_stats(log);
  std::printf("%-12s %8zu jobs  util %5.1f%%  exec %6.2f h (cv %5.2f%%)  "
              "wait %6.2f h (cv %5.2f%%)\n",
              s.name.c_str(), s.job_count, 100.0 * log.utilization(),
              s.avg_exec_hours, s.cv_exec_pct, s.avg_wait_hours,
              s.cv_wait_pct);
}

int cmd_stats(int argc, char** argv) {
  if (argc >= 3) {
    print_stats(workload::read_swf_file(argv[2]));
    return 0;
  }
  for (const char* name : {"ctc", "osc", "blue", "ds", "g5k"}) {
    util::Rng rng(1);
    print_stats(workload::generate_log(spec_for(name), rng));
  }
  return 0;
}

int cmd_gen(int argc, char** argv) {
  if (argc < 4) throw resched::Error("usage: trace_tool gen <platform> <out.swf>");
  util::Rng rng(1);
  workload::Log log = workload::generate_log(spec_for(argv[2]), rng);
  std::ofstream out(argv[3]);
  workload::write_swf(out, log);
  std::printf("wrote %zu jobs (%d cpus) to %s\n", log.jobs.size(), log.cpus,
              argv[3]);
  return 0;
}

int cmd_resv(int argc, char** argv) {
  if (argc < 5)
    throw resched::Error("usage: trace_tool resv <platform> <phi> <linear|expo|real>");
  util::Rng rng(1);
  workload::Log log = workload::generate_log(spec_for(argv[2]), rng);

  workload::TaggingSpec spec;
  spec.phi = std::stod(argv[3]);
  std::string method = argv[4];
  spec.method = method == "linear" ? workload::DecayMethod::kLinear
                : method == "expo" ? workload::DecayMethod::kExpo
                                   : workload::DecayMethod::kReal;
  double now = log.duration / 2.0;
  auto schedule = workload::make_reservation_schedule(log, now, spec, rng);

  std::printf("%zu reservations visible at t=%.1f days (phi=%.2f, %s)\n",
              schedule.size(), now / kDay, spec.phi,
              workload::to_string(spec.method));
  for (int day = 0; day < 7; ++day) {
    int count = 0;
    double procs = 0;
    for (const auto& r : schedule) {
      if (r.start >= now + day * kDay && r.start < now + (day + 1) * kDay) {
        ++count;
        procs += r.procs;
      }
    }
    std::printf("  day +%d: %5d reservations starting, %7.0f procs total\n",
                day, count, procs);
  }
  return 0;
}

int cmd_merge_traces(int argc, char** argv) {
  if (argc < 4)
    throw resched::Error(
        "usage: trace_tool merge_traces <out.jsonl|-> <in.jsonl>...");
  std::vector<std::vector<online::TraceRecord>> shards;
  std::size_t total = 0;
  for (int i = 3; i < argc; ++i) {
    std::ifstream in(argv[i]);
    if (!in) throw resched::Error(std::string("cannot open ") + argv[i]);
    shards.push_back(online::read_trace(in));
    total += shards.back().size();
  }
  std::vector<online::TraceRecord> merged =
      online::merge_traces(std::move(shards));
  std::ofstream file;
  bool to_stdout = !std::strcmp(argv[2], "-");
  if (!to_stdout) {
    file.open(argv[2]);
    if (!file) throw resched::Error(std::string("cannot open ") + argv[2]);
  }
  std::ostream& out = to_stdout ? std::cout : file;
  for (const online::TraceRecord& r : merged)
    out << online::to_json_line(r) << '\n';
  if (!to_stdout)
    std::printf("merged %zu records from %d traces into %s\n", total,
                argc - 3, argv[2]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2 || std::strcmp(argv[1], "stats") == 0)
      return cmd_stats(argc, argv);
    if (std::strcmp(argv[1], "gen") == 0) return cmd_gen(argc, argv);
    if (std::strcmp(argv[1], "resv") == 0) return cmd_resv(argc, argv);
    if (std::strcmp(argv[1], "merge_traces") == 0)
      return cmd_merge_traces(argc, argv);
    std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
