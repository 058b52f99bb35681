// PDES replay tests (DESIGN.md §12): the determinism contract of the
// conservative time-windowed parallel replay — byte-identical merged
// traces, aggregates, and deterministic stats against the single-threaded
// windowed oracle at every worker count, window size, and seed, with and
// without a chaos campaign — plus the wide-window anchor tying the
// 1-shard protocol to a plain SchedulerService, the streaming SWF reader
// against the batch reader, and the reschedd batched-admission
// differential (apply_batch vs one-by-one apply). The PDES differential
// legs run under TSan in CI: the window barrier is the only concurrency
// in the driver, and a race there shows up as a trace divergence here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/dag/dag.hpp"
#include "src/ft/repair.hpp"
#include "src/obs/obs.hpp"
#include "src/online/replay.hpp"
#include "src/online/service.hpp"
#include "src/online/trace.hpp"
#include "src/pdes/pdes.hpp"
#include "src/pdes/source.hpp"
#include "src/srv/proto.hpp"
#include "src/srv/server_core.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "src/workload/swf.hpp"
#include "src/workload/synth.hpp"
#include "tests/fnv1a.hpp"

namespace {

using namespace resched;

constexpr int kCpus = 64;
constexpr int kJobs = 120;

workload::Log dense_log() {
  workload::SyntheticLogSpec spec = workload::sdsc_blue_spec();
  spec.cpus = kCpus;
  spec.duration_days = 2.0;
  util::Rng rng(7);
  return workload::generate_log(spec, rng);
}

online::ReplaySpec replay_spec(std::uint64_t seed) {
  online::ReplaySpec spec;
  spec.app.num_tasks = 6;
  spec.app.min_seq_time = 60.0;
  spec.app.max_seq_time = 1800.0;
  spec.deadline_fraction = 0.4;
  spec.deadline_slack = 3.0;
  spec.max_jobs = kJobs;
  spec.seed = seed;
  return spec;
}

/// Full deterministic-surface comparison: merged trace (line by line, as
/// JSON bytes), admission aggregates, thread-independent stats, and chaos
/// counters. barrier_stall_ns is wall-clock measured and deliberately
/// excluded.
void expect_same_results(const pdes::PdesResult& got,
                         const pdes::PdesResult& want,
                         const std::string& label) {
  ASSERT_EQ(got.trace.size(), want.trace.size()) << label;
  for (std::size_t i = 0; i < got.trace.size(); ++i)
    ASSERT_EQ(online::to_json_line(got.trace[i]),
              online::to_json_line(want.trace[i]))
        << label << ": trace diverges at record " << i;
  EXPECT_EQ(got.aggregates.submitted, want.aggregates.submitted) << label;
  EXPECT_EQ(got.aggregates.accepted, want.aggregates.accepted) << label;
  EXPECT_EQ(got.aggregates.counter_offered, want.aggregates.counter_offered)
      << label;
  EXPECT_EQ(got.aggregates.rejected, want.aggregates.rejected) << label;
  EXPECT_EQ(got.aggregates.spillovers, want.aggregates.spillovers) << label;
  EXPECT_EQ(got.stats.windows, want.stats.windows) << label;
  EXPECT_EQ(got.stats.fast_forwards, want.stats.fast_forwards) << label;
  EXPECT_EQ(got.stats.arrivals, want.stats.arrivals) << label;
  EXPECT_EQ(got.stats.disruptions, want.stats.disruptions) << label;
  EXPECT_EQ(got.stats.blind_probes, want.stats.blind_probes) << label;
  EXPECT_EQ(got.stats.floor_skips, want.stats.floor_skips) << label;
  EXPECT_EQ(got.stats.events, want.stats.events) << label;
  EXPECT_EQ(got.stats.horizon, want.stats.horizon) << label;
  ASSERT_EQ(got.chaos.size(), want.chaos.size()) << label;
  for (std::size_t s = 0; s < got.chaos.size(); ++s)
    EXPECT_TRUE(got.chaos[s] == want.chaos[s])
        << label << ": chaos counters diverge on shard " << s;
}

pdes::PdesConfig pdes_config(int shards, int threads, double window) {
  pdes::PdesConfig config;
  config.shards = shards;
  config.threads = threads;
  config.window = window;
  config.service.capacity = kCpus / shards;
  return config;
}

// --- parallel vs serial oracle ----------------------------------------------

/// The core contract: the parallel driver's merged trace and final metrics
/// are byte-identical to the serial oracle's at EVERY worker count — one
/// worker included — across window sizes and generation seeds.
TEST(PdesDifferential, ParallelMatchesSerialOracleAcrossThreadsWindowsSeeds) {
  const workload::Log log = dense_log();
  for (const std::uint64_t seed : {42ull, 1337ull}) {
    const online::ReplaySpec spec = replay_spec(seed);
    for (const double window : {900.0, 3600.0, 14400.0}) {
      pdes::PdesConfig config = pdes_config(4, 1, window);
      pdes::LogSource oracle_source(log, spec);
      const pdes::PdesResult want = pdes::serial_replay(config, oracle_source);
      ASSERT_GT(want.trace.size(), 0u);
      ASSERT_EQ(want.aggregates.submitted, kJobs);
      for (const int threads : {1, 2, 4, 8}) {
        config.threads = threads;
        pdes::LogSource source(log, spec);
        pdes::PdesReplayEngine engine(config);
        const pdes::PdesResult got = engine.run(source);
        expect_same_results(
            got, want,
            "seed " + std::to_string(seed) + " window " +
                std::to_string(window) + " threads " + std::to_string(threads));
      }
    }
  }
}

/// Reject-infeasible admission exercises the blind floor probe's skip path
/// (provably-late shards are skipped, rejections still come from engines).
TEST(PdesDifferential, RejectPolicyAndFloorProbeMatchSerialOracle) {
  const workload::Log log = dense_log();
  online::ReplaySpec spec = replay_spec(99);
  spec.deadline_fraction = 0.8;
  spec.deadline_slack = 1.2;  // tight: forces floor skips and rejections
  pdes::PdesConfig config = pdes_config(4, 1, 3600.0);
  config.service.admission = online::AdmissionPolicy::kRejectInfeasible;

  pdes::LogSource oracle_source(log, spec);
  const pdes::PdesResult want = pdes::serial_replay(config, oracle_source);
  EXPECT_GT(want.stats.blind_probes, 0u);
  for (const int threads : {2, 4}) {
    config.threads = threads;
    pdes::LogSource source(log, spec);
    pdes::PdesReplayEngine engine(config);
    expect_same_results(engine.run(source), want,
                        "reject threads " + std::to_string(threads));
  }
}

/// Chaos campaigns stay deterministic too: per-shard seeded disruption
/// streams are generated serially between barriers, so repair counters and
/// the disrupted trace match the oracle at every worker count.
TEST(PdesDifferential, ChaosCampaignMatchesSerialOracle) {
  const workload::Log log = dense_log();
  const online::ReplaySpec spec = replay_spec(42);
  pdes::PdesConfig config = pdes_config(4, 1, 3600.0);
  pdes::PdesChaos chaos;
  chaos.injector.seed = 11;
  chaos.injector.outage_mean = 4.0 * 3600.0;
  chaos.injector.outage_procs_max = 4;
  chaos.injector.outage_duration_mean = 1800.0;
  config.chaos = chaos;

  pdes::LogSource oracle_source(log, spec);
  const pdes::PdesResult want = pdes::serial_replay(config, oracle_source);
  EXPECT_GT(want.stats.disruptions, 0u);
  ASSERT_EQ(want.chaos.size(), 4u);
  for (const int threads : {1, 4, 8}) {
    config.threads = threads;
    pdes::LogSource source(log, spec);
    pdes::PdesReplayEngine engine(config);
    expect_same_results(engine.run(source), want,
                        "chaos threads " + std::to_string(threads));
  }
}

/// Anchor to the established engine: with one shard and a window wide
/// enough to cover the whole archive, the windowed protocol degenerates to
/// "enqueue everything, run to the end" — its trace must be byte-identical
/// to a plain SchedulerService fed the same stream up front.
TEST(PdesDifferential, OneShardWideWindowMatchesPlainEngine) {
  const workload::Log log = dense_log();
  const online::ReplaySpec spec = replay_spec(42);
  pdes::PdesConfig config = pdes_config(1, 1, 1e9);

  pdes::LogSource source(log, spec);
  pdes::PdesReplayEngine engine(config);
  const pdes::PdesResult got = engine.run(source);

  std::vector<online::TraceRecord> want;
  online::TraceWriter writer(want, 0);
  online::SchedulerService plain(config.service);
  plain.set_trace(&writer);
  for (online::JobSubmission& job : online::submissions_from_log(log, spec))
    plain.submit(std::move(job));
  plain.run_until(got.stats.horizon);
  plain.set_trace(nullptr);

  ASSERT_EQ(got.trace.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(online::to_json_line(got.trace[i]),
              online::to_json_line(want[i]))
        << "trace diverges at record " << i;
  EXPECT_EQ(got.stats.events, plain.events_processed());
  EXPECT_EQ(got.aggregates.accepted, plain.metrics().accepted());
}

/// FNV-1a (64-bit) over the merged trace's JSONL bytes, one '\n' after
/// each record: a compact fingerprint of a whole replay.
std::uint64_t trace_hash(const std::vector<online::TraceRecord>& trace) {
  std::uint64_t h = fnv::kOffsetBasis;
  for (const online::TraceRecord& r : trace)
    h = fnv::fnv1a(online::to_json_line(r) + '\n', h);
  return h;
}

/// PdesReplayEngine and the oracle call the same pick_shard, so the
/// differential suite cannot see a routing change. These literals pin the
/// routing itself: where each job lands, the probes spent, and the trace
/// the placements produce, under both admission policies.
TEST(PdesRouting, PinnedPlacementsProbesAndTrace) {
  struct Leg {
    online::AdmissionPolicy policy;
    std::vector<int> submitted;  ///< per shard
    std::uint64_t blind_probes, floor_skips, windows, events, hash;
  };
  const Leg legs[] = {
      {online::AdmissionPolicy::kCounterOffer, {37, 31, 27, 25}, 786, 44, 27,
       1560, 17232572395972151378ull},
      {online::AdmissionPolicy::kRejectInfeasible, {34, 33, 27, 26}, 786, 44,
       27, 384, 3787285036426434498ull},
  };
  const workload::Log log = dense_log();
  online::ReplaySpec spec = replay_spec(42);
  spec.deadline_fraction = 0.8;
  spec.deadline_slack = 0.1;  // tight enough for floor skips
  for (const Leg& leg : legs) {
    pdes::PdesConfig config = pdes_config(4, 2, 3600.0);
    config.service.admission = leg.policy;
    pdes::LogSource source(log, spec);
    pdes::PdesReplayEngine engine(config);
    const pdes::PdesResult got = engine.run(source);
    std::vector<int> submitted;
    for (int s = 0; s < 4; ++s)
      submitted.push_back(engine.service().engine(s).metrics().submitted());
    EXPECT_EQ(submitted, leg.submitted);
    EXPECT_EQ(got.stats.blind_probes, leg.blind_probes);
    EXPECT_EQ(got.stats.floor_skips, leg.floor_skips);
    EXPECT_EQ(got.stats.windows, leg.windows);
    EXPECT_EQ(got.stats.events, leg.events);
    EXPECT_EQ(trace_hash(got.trace), leg.hash);
  }
}

/// A PDES replay routes whole windows without the lockstep router, so its
/// metrics list each shard's advance latency and none of the router's
/// five decision metrics, which would all read 0.
TEST(PdesMetrics, ReplayListsEachShardsLatencyAndNoRouterMetrics) {
#ifdef RESCHED_OBS_DISABLED
  GTEST_SKIP() << "metrics are compiled out";
#else
  const workload::Log log = dense_log();
  obs::registry().reset();
  obs::set_metrics_enabled(true);
  pdes::LogSource source(log, replay_spec(42));
  pdes::PdesReplayEngine engine(pdes_config(2, 1, 3600.0));
  engine.run(source);
  obs::set_metrics_enabled(false);

  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  std::set<std::string> names;
  for (const obs::CounterSample& c : snap.counters) names.insert(c.name);
  for (const obs::HistogramSample& h : snap.histograms) names.insert(h.name);
  for (int s = 0; s < 2; ++s) {
    const std::string prefix = "shard." + std::to_string(s) + ".";
    EXPECT_EQ(names.count(prefix + "event_latency_ns"), 1u) << prefix;
    for (const char* metric :
         {"accepted", "counter_offered", "rejected", "spill_in", "queue_depth"})
      EXPECT_EQ(names.count(prefix + metric), 0u) << prefix << metric;
  }
#endif
}

// --- streaming SWF reader ---------------------------------------------------

std::string swf_line(int id, double submit, double run, int procs) {
  std::ostringstream out;
  out << id << ' ' << submit << " -1 " << run << ' ' << procs
      << " -1 -1 " << procs << " -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
  return out.str();
}

/// The streaming reader must emit exactly the job sequence the batch
/// reader materializes (same submit-order sort, same tie-breaks, same
/// validation), one bounded-memory job at a time.
TEST(SwfStream, MatchesBatchReaderOnGeneratedArchive) {
  const workload::Log original = dense_log();
  std::ostringstream swf;
  workload::write_swf(swf, original);

  std::istringstream batch_in(swf.str());
  const workload::Log want = workload::read_swf(batch_in, "test");

  std::istringstream stream_in(swf.str());
  workload::SwfStreamReader reader(stream_in, "test");
  EXPECT_EQ(reader.header_cpus(), want.cpus);
  std::vector<workload::Job> got;
  while (std::optional<workload::Job> job = reader.next())
    got.push_back(*job);
  EXPECT_EQ(reader.emitted(), static_cast<long long>(got.size()));

  ASSERT_EQ(got.size(), want.jobs.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].submit, want.jobs[i].submit) << i;
    EXPECT_EQ(got[i].runtime, want.jobs[i].runtime) << i;
    EXPECT_EQ(got[i].procs, want.jobs[i].procs) << i;
  }
}

TEST(SwfStream, ReordersWithinWindowAndSkipsDisplacedBeyondIt) {
  // Disorder distance of 2 (the 50 sits two lines late): a window of 8
  // absorbs it and emits fully sorted.
  const std::string archive = swf_line(1, 100.0, 60.0, 2) +
                              swf_line(2, 200.0, 60.0, 2) +
                              swf_line(3, 50.0, 60.0, 2) +
                              swf_line(4, 300.0, 60.0, 2);
  {
    std::istringstream in(archive);
    workload::SwfStreamReader reader(in, "test", {}, /*reorder_window=*/8);
    std::vector<double> submits;
    while (std::optional<workload::Job> job = reader.next())
      submits.push_back(job->submit);
    EXPECT_EQ(submits, (std::vector<double>{50.0, 100.0, 200.0, 300.0}));
  }
  // A window of 1 cannot hold the displaced job: by the time the 50
  // surfaces, 100 was already emitted, so the 50 is skipped with a
  // diagnostic rather than breaking the nondecreasing-order contract.
  {
    workload::SwfDiagnostics diags;
    workload::SwfReadOptions opts;
    opts.diagnostics = &diags;
    std::istringstream in(archive);
    workload::SwfStreamReader reader(in, "test", opts, /*reorder_window=*/1);
    std::vector<double> submits;
    while (std::optional<workload::Job> job = reader.next())
      submits.push_back(job->submit);
    for (std::size_t i = 1; i < submits.size(); ++i)
      EXPECT_GE(submits[i], submits[i - 1]);
    EXPECT_EQ(submits, (std::vector<double>{100.0, 200.0, 300.0}));
    EXPECT_GT(diags.malformed_lines, 0);
    EXPECT_FALSE(diags.messages.empty());
  }
  // strict mode: the same displacement is a hard error.
  {
    workload::SwfReadOptions opts;
    opts.strict = true;
    std::istringstream in(archive);
    workload::SwfStreamReader reader(in, "test", opts, /*reorder_window=*/1);
    EXPECT_THROW(
        while (reader.next().has_value()) {}, resched::Error);
  }
}

TEST(SwfStream, HeaderCpusFallsBackToMaxObservedAllocation) {
  {
    std::istringstream in("; MaxProcs: 96\n" + swf_line(1, 0.0, 60.0, 8));
    workload::SwfStreamReader reader(in, "test");
    EXPECT_EQ(reader.header_cpus(), 96);
  }
  {
    std::istringstream in(swf_line(1, 0.0, 60.0, 8) +
                          swf_line(2, 10.0, 60.0, 24));
    workload::SwfStreamReader reader(in, "test");
    std::vector<workload::Job> all;
    while (std::optional<workload::Job> job = reader.next())
      all.push_back(*job);
    EXPECT_EQ(reader.header_cpus(), 24);
  }
  {
    std::istringstream in(swf_line(1, 0.0, 60.0, 8));
    workload::SwfReadOptions opts;
    opts.cpus_override = 512;
    workload::SwfStreamReader reader(in, "test", opts);
    EXPECT_EQ(reader.header_cpus(), 512);
  }
}

TEST(SwfStream, MalformedLinesSkippedWithDiagnosticsSharedWithBatchReader) {
  const std::string archive = swf_line(1, 0.0, 60.0, 2) +
                              "not an swf line at all\n" +
                              swf_line(2, 10.0, 60.0, 2);
  workload::SwfDiagnostics diags;
  workload::SwfReadOptions opts;
  opts.diagnostics = &diags;
  std::istringstream in(archive);
  workload::SwfStreamReader reader(in, "test", opts);
  int count = 0;
  while (reader.next().has_value()) ++count;
  EXPECT_EQ(count, 2);
  EXPECT_EQ(diags.malformed_lines, 1);
}

// --- reschedd batched admission ---------------------------------------------

std::string make_temp_dir() {
  char tmpl[] = "/tmp/resched_pdes_batch_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A pipelined client's flush: bursts of same-timestamp deadline submits
/// (several admissions in one flush, each against the calendar the ones
/// before it left) mixed with undated submits, status reads, cancels, and
/// counter-offer accepts.
std::vector<srv::proto::Request> batch_script(int jobs) {
  std::vector<srv::proto::Request> script;
  for (int j = 1; j <= jobs; ++j) {
    const double t = 40.0 * static_cast<double>((j - 1) / 4);  // 4-job bursts
    srv::proto::Request submit;
    submit.verb = srv::proto::Verb::kSubmit;
    submit.job_id = j;
    submit.time = t;
    std::vector<dag::TaskCost> costs;
    for (int v = 0; v <= j % 3; ++v)
      costs.push_back({600.0 + 100.0 * static_cast<double>(j % 7), 0.0});
    submit.dag = dag::Dag(std::move(costs), {});
    if (j % 4 == 0)
      submit.deadline = t + 1.0;  // infeasibly tight -> counter-offered
    else if (j % 2 == 0)
      submit.deadline = t + 1e6;  // generous -> accepted
    script.push_back(submit);

    if (j % 4 == 0) {
      srv::proto::Request accept;
      accept.verb = srv::proto::Verb::kCounterOfferAccept;
      accept.job_id = j;
      accept.time = t + 5.0;
      script.push_back(accept);
    }
    if (j % 5 == 0) {
      srv::proto::Request status;
      status.verb = srv::proto::Verb::kStatus;
      status.job_id = j - 1;
      status.time = t + 6.0;
      script.push_back(status);
    }
    if (j % 6 == 0) {
      srv::proto::Request cancel;
      cancel.verb = srv::proto::Verb::kCancel;
      cancel.job_id = j - 2;
      cancel.time = t + 7.0;
      script.push_back(cancel);
    }
  }
  return script;
}

/// Contract of the batched admission path: apply_batch must be
/// byte-identical to one-by-one apply — same encoded responses in the same
/// order, same WAL bytes, same shutdown artifacts — no matter how the
/// stream is chopped into flushes. A batch only shares the core-lock
/// acquisition and the WAL flush; every request is admitted against the
/// live calendar exactly as apply() admits it.
TEST(SrvBatch, ApplyBatchMatchesSerialApplyByteForByte) {
  const std::vector<srv::proto::Request> script = batch_script(24);

  const std::string serial_dir = make_temp_dir();
  std::vector<std::string> want_responses;
  {
    srv::ServerCoreConfig config;
    config.service.capacity = 16;
    config.state_dir = serial_dir;
    srv::ServerCore core(config);
    core.recover();
    for (const srv::proto::Request& request : script) {
      std::uint64_t lsn = 0;
      want_responses.push_back(srv::proto::encode(core.apply(request, &lsn)));
      core.sync(lsn);
    }
    core.finalize();
  }

  // Flush sizes sweep the interesting shapes: singletons, whole 4-submit
  // bursts, and a jumbo flush spanning many bursts.
  for (const std::size_t flush : {std::size_t{1}, std::size_t{4},
                                  std::size_t{7}, script.size()}) {
    const std::string dir = make_temp_dir();
    std::vector<std::string> got_responses;
    {
      srv::ServerCoreConfig config;
      config.service.capacity = 16;
      config.state_dir = dir;
      srv::ServerCore core(config);
      core.recover();
      std::vector<srv::proto::Request> burst;
      std::vector<srv::proto::Response> responses;
      for (std::size_t i = 0; i < script.size(); i += flush) {
        burst.assign(script.begin() + static_cast<std::ptrdiff_t>(i),
                     script.begin() +
                         static_cast<std::ptrdiff_t>(
                             std::min(i + flush, script.size())));
        responses.clear();
        const std::uint64_t lsn = core.apply_batch(burst, responses);
        core.sync(lsn);
        for (const srv::proto::Response& r : responses)
          got_responses.push_back(srv::proto::encode(r));
      }
      core.finalize();
    }
    ASSERT_EQ(got_responses.size(), want_responses.size()) << flush;
    for (std::size_t i = 0; i < want_responses.size(); ++i)
      ASSERT_EQ(got_responses[i], want_responses[i])
          << "flush " << flush << ": response " << i << " diverges";
    EXPECT_EQ(read_file(dir + "/wal"), read_file(serial_dir + "/wal"))
        << "flush " << flush;
    EXPECT_EQ(read_file(dir + "/trace.jsonl"),
              read_file(serial_dir + "/trace.jsonl"))
        << "flush " << flush;
    EXPECT_EQ(read_file(dir + "/calendar.tsv"),
              read_file(serial_dir + "/calendar.tsv"))
        << "flush " << flush;
  }
}

}  // namespace
