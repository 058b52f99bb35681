// perfbench: one benchmark over resched's three end-to-end paths, with a
// traced per-layer breakdown of each.
//
//   perfbench --workload paper|tight --seed N --seconds S --trace 0|1
//             --state-dir DIR
//
// The paths:
//
//  * sweep  — the paper's Table-4 comparison: every cell is one scenario
//    instance (DAG + reservation calendar) scheduled by the four RESSCHED
//    bounding methods. The rate sums each cell's median time over its
//    visits.
//  * replay — the conservative windowed archive replay (src/pdes/): a
//    seeded synthetic log replayed over 4 shards with a chaos campaign,
//    the merged trace captured. Rate from the median pass.
//  * rpc    — reschedd's durable submit: an in-process daemon on a unix
//    socket with a group-commit fsync'd WAL, driven by a closed-loop
//    client that pipelines 256 submits and waits for their durable acks
//    before the next burst. Rate from the median round trip. With one
//    client the median ack latency is the same figure, and on a shared
//    host the tail latency swings with the other tenants' load by more
//    than any bound a regression gate could use, so neither is reported.
//
// Replay and RPC each run on one driving thread: on a shared host, the
// throughput of work spread over several threads swings with the other
// tenants' load far more than single-threaded work does.
//
// The paths run in alternating slices of about 0.1 s for the whole
// --seconds, so each one samples the host over the same span of time: the
// speed of a shared host drifts over seconds, and back-to-back phases
// would each catch a different part of that drift.
//
// The workload picks the deadline pressure of the replay and RPC streams:
// "paper" is the paper's working point (loose deadlines on a minority of
// jobs), "tight" puts most jobs under deadlines they often cannot meet, so
// the RESSCHEDDL, tightest-deadline and counter-offer layers carry those
// paths. The sweep has no deadlines and is the same on both.
//
// Inputs come only from --seed. Set-up (instances, logs, the serial replay
// oracle, request DAGs) is built several times and its median reported, so
// work moved into set-up shows. Outputs are checked: every sweep schedule
// is validated on its first visit and must repeat bit for bit afterwards,
// every replay must equal the single-threaded oracle (pdes::serial_replay),
// and every acked submit must survive a WAL recovery into a fresh daemon.
//
// --trace 0 leaves the program's instrumentation idle and reports the
// end-to-end metrics; --trace 1 turns on obs metrics and span tracing and
// reports the per-layer metrics instead. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/algorithms.hpp"
#include "src/core/ressched.hpp"
#include "src/core/schedule.hpp"
#include "src/dag/daggen.hpp"
#include "src/obs/obs.hpp"
#include "src/pdes/pdes.hpp"
#include "src/pdes/source.hpp"
#include "src/sim/scenario.hpp"
#include "src/srv/client.hpp"
#include "src/srv/proto.hpp"
#include "src/srv/server.hpp"
#include "src/srv/server_core.hpp"
#include "src/util/rng.hpp"
#include "src/workload/synth.hpp"

namespace {

using namespace resched;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- workloads ---------------------------------------------------------------

constexpr double kSliceSeconds = 0.1;
constexpr int kSetupReps = 5;

// Sweep: one cell per (Table-1 application spec, batch-log platform), the
// log's phi / decay method and the instance indices drawn from the seed.
// Stratifying over every spec and platform keeps a run's mix, and so its
// per-cell cost, the same from seed to seed.
constexpr int kPlatforms = 4;
constexpr int kGridPerPlatform = 9;  // 3 phi x 3 decay methods

// Replay: an SDSC-Blue-shaped log on a 256-proc platform split in 4 shards.
constexpr int kReplayCpus = 256;
constexpr int kReplayShards = 4;
constexpr int kReplayThreads = 1;
constexpr int kReplayJobs = 160;
constexpr double kReplayWindow = 3600.0;

// RPC: a closed-loop client pipelines a burst of submits (one write,
// drained by the daemon under one lock and one WAL fsync) and waits for
// their durable acks before sending the next burst. Submit times march
// 10 s per job in send order, so each applies at its requested time.
constexpr int kRpcBurst = 256;
constexpr int kRpcDags = 256;
constexpr double kRpcSpacing = 10.0;

struct Workload {
  const char* name;
  /// Replay: share of jobs with a deadline, and its slack over the DAG's
  /// serial critical path (online::ReplaySpec).
  double replay_deadline_fraction;
  double replay_deadline_slack;
  /// RPC: share of submits with a deadline, drawn uniformly in
  /// [min, max] seconds after the submit time.
  double rpc_deadline_fraction;
  double rpc_deadline_min;
  double rpc_deadline_max;
};

constexpr Workload kWorkloads[] = {
    {"paper", 0.3, 3.0, 0.3, 20000.0, 40000.0},
    {"tight", 0.8, 1.2, 0.8, 20.0, 400.0},
};

// --- report ------------------------------------------------------------------

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void fail(const std::string& why) {
    correct = false;
    ++failed;
    std::cerr << "perfbench: check failed: " << why << "\n";
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].first.c_str(),
                  metrics[i].second.first, metrics[i].second.second.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

double per(double value, double n) { return n > 0 ? value / n : 0.0; }

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// --- per-layer accounting ------------------------------------------------------

/// One path's share of the program's own instrumentation: spans by name
/// with their self time (duration minus the part spans nested on the same
/// thread cover, so nested layers are not counted twice), histogram sums
/// and counts, and counter totals.
class LayerLedger {
 public:
  struct Hist {
    double sum = 0.0;
    double count = 0.0;
    double mean() const { return per(sum, count); }
  };

  void fold(std::vector<obs::SpanEvent> spans) {
    std::sort(spans.begin(), spans.end(),
              [](const obs::SpanEvent& a, const obs::SpanEvent& b) {
                if (a.tid != b.tid) return a.tid < b.tid;
                if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                return a.end_ns > b.end_ns;
              });
    struct Open {
      const obs::SpanEvent* ev;
      std::int64_t child_ns;
    };
    std::vector<Open> open;
    auto close = [&] {
      const Open& o = open.back();
      self_ns_[o.ev->name] +=
          static_cast<double>(o.ev->end_ns - o.ev->start_ns - o.child_ns);
      open.pop_back();
    };
    for (const obs::SpanEvent& ev : spans) {
      while (!open.empty() && (open.back().ev->tid != ev.tid ||
                               open.back().ev->end_ns <= ev.start_ns))
        close();
      if (!open.empty()) open.back().child_ns += ev.end_ns - ev.start_ns;
      open.push_back({&ev, 0});
    }
    while (!open.empty()) close();
  }

  void fold(const obs::MetricsSnapshot& snap) {
    for (const auto& h : snap.histograms) {
      Hist& mine = hists_[h.name];
      mine.sum += static_cast<double>(h.sum);
      mine.count += static_cast<double>(h.count);
    }
    for (const auto& c : snap.counters)
      counters_[c.name] += static_cast<double>(c.value);
  }

  /// Self time summed over every span named `name`.
  double self_ns(const std::string& name) const {
    return find(self_ns_, name);
  }
  Hist hist(const std::string& name) const { return find(hists_, name); }
  double counter(const std::string& name) const {
    return find(counters_, name);
  }

  /// Summed over every histogram named prefix*suffix (the per-shard
  /// shard.<id>.* families).
  Hist hist_family(const std::string& prefix,
                   const std::string& suffix) const {
    Hist out;
    for (const auto& [name, h] : hists_)
      if (name.size() >= prefix.size() + suffix.size() &&
          name.compare(0, prefix.size(), prefix) == 0 &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        out.sum += h.sum;
        out.count += h.count;
      }
    return out;
  }

 private:
  template <class V>
  static V find(const std::map<std::string, V>& m, const std::string& name) {
    auto it = m.find(name);
    return it == m.end() ? V{} : it->second;
  }

  std::map<std::string, double> self_ns_;
  std::map<std::string, Hist> hists_;
  std::map<std::string, double> counters_;
};

/// The program's instrumentation over a run. Off: idle, every site costs
/// its one relaxed load. On: metrics stay enabled and every slice runs in a
/// fresh tracer session and a zeroed registry, so what it records is
/// attributed to the path that ran it alone.
class Instrumentation {
 public:
  explicit Instrumentation(bool on) : on_(on) {
    if (on_) obs::set_metrics_enabled(true);
  }
  Instrumentation(const Instrumentation&) = delete;
  Instrumentation& operator=(const Instrumentation&) = delete;
  ~Instrumentation() {
    if (on_) obs::set_metrics_enabled(false);
    if (dropped_ > 0)
      std::cerr << "perfbench: warning: " << dropped_
                << " spans dropped (ring saturated)\n";
  }

  bool on() const { return on_; }

  /// Runs `fn` and folds what it recorded into `ledger`; returns its spans.
  /// No traced work may be in flight when the slice starts or ends.
  template <class Fn>
  std::vector<obs::SpanEvent> slice(LayerLedger& ledger, Fn&& fn) {
    if (!on_) {
      fn();
      return {};
    }
    obs::Tracer& tracer = obs::Tracer::global();
    obs::registry().reset();
    tracer.start(kCapacity);
    fn();
    tracer.stop();
    dropped_ += tracer.dropped();
    std::vector<obs::SpanEvent> spans = tracer.snapshot();
    ledger.fold(spans);
    ledger.fold(obs::registry().snapshot());
    return spans;
  }

 private:
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;
  bool on_;
  std::uint64_t dropped_ = 0;
};

// --- sweep ---------------------------------------------------------------------

std::vector<sim::Instance> make_sweep_cells(std::uint64_t seed) {
  const std::vector<sim::ScenarioSpec> grid = sim::synthetic_grid();
  const auto apps = grid.size() / (kPlatforms * kGridPerPlatform);
  util::Rng rng(util::derive_seed(seed, {0x5EE9}));
  std::vector<sim::Instance> cells;
  for (std::size_t a = 0; a < apps; ++a)
    for (int p = 0; p < kPlatforms; ++p) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, kGridPerPlatform - 1));
      const sim::ScenarioSpec& scenario =
          grid[(a * kPlatforms + static_cast<std::size_t>(p)) *
                   kGridPerPlatform +
               k];
      const auto dag_idx = static_cast<int>(rng.uniform_int(0, 19));
      const auto resv_idx = static_cast<int>(rng.uniform_int(0, 49));
      cells.push_back(sim::make_instance(scenario, dag_idx, resv_idx, seed));
    }
  return cells;
}

class SweepPath {
 public:
  explicit SweepPath(const std::vector<sim::Instance>& cells)
      : cells_(cells),
        algos_(core::table4_algorithms()),
        expected_(cells.size()),
        cell_s_(cells.size()) {}

  /// Schedules cells for about `quantum_s`, resuming where the last slice
  /// stopped.
  void slice(double quantum_s, Report& report) {
    const auto t_start = Clock::now();
    do {
      const std::size_t c = next_;
      next_ = (next_ + 1) % cells_.size();
      const sim::Instance& inst = cells_[c];
      results_.clear();
      const auto t0 = Clock::now();
      for (const auto& algo : algos_)
        results_.push_back(core::schedule_ressched(
            inst.dag, inst.profile, inst.now, inst.q_hist, algo.params));
      cell_s_[c].push_back(seconds_since(t0));
      calls_ += algos_.size();
      ++visits_;
      ++report.attempted;

      // Every number a cell's schedules produce, fixed by its first
      // (validated) visit and compared bit for bit on every later one.
      std::vector<double> sig;
      for (const core::ResschedResult& r : results_) {
        sig.push_back(r.turnaround);
        sig.push_back(r.cpu_hours);
        if (expected_[c].empty())
          if (auto err = core::validate_schedule(inst.dag, r.schedule,
                                                 inst.profile, inst.now))
            report.fail("sweep cell " + std::to_string(c) + ": " + *err);
      }
      if (expected_[c].empty())
        expected_[c] = std::move(sig);
      else if (sig != expected_[c])
        report.fail("sweep cell " + std::to_string(c) +
                    " changed between visits");
    } while (seconds_since(t_start) < quantum_s);
  }

  /// Every cell visited at least once.
  bool covered() const { return visits_ >= cells_.size(); }

  void report_end_to_end(Report& report) const {
    double pass_s = 0.0;
    for (const std::vector<double>& s : cell_s_) pass_s += median(s);
    report.add("sweep_cells_per_s",
               static_cast<double>(cells_.size()) / pass_s, "1/s");
  }

  void report_layers(Report& report) const {
    const auto n = static_cast<double>(calls_);
    auto self_us = [&](const char* name) {
      return per(layers.self_ns(name), n) / 1e3;
    };
    report.add("sweep.bottom_levels_us",
               self_us("core.ressched.bottom_levels"), "us");
    report.add("sweep.alloc_sweep_us", self_us("core.ressched.alloc_sweep"),
               "us");
    report.add("sweep.bl_kernel_us", self_us("kernels.bl_sweep_ns"), "us");
    report.add("sweep.fit_queries",
               per(layers.counter("core.ressched.sweep_queries"), n), "count");
    report.add("sweep.fit_batches", per(layers.counter("resv.fit.batches"), n),
               "count");
  }

  LayerLedger layers;

 private:
  const std::vector<sim::Instance>& cells_;
  std::vector<core::NamedRessched> algos_;
  std::vector<std::vector<double>> expected_;
  std::vector<std::vector<double>> cell_s_;  ///< per cell: visit times
  std::vector<core::ResschedResult> results_;
  std::size_t next_ = 0;
  std::uint64_t visits_ = 0;
  std::uint64_t calls_ = 0;
};

// --- replay --------------------------------------------------------------------

struct ReplayInputs {
  workload::Log log;
  online::ReplaySpec spec;
  pdes::PdesConfig config;
  pdes::PdesResult oracle;
};

ReplayInputs make_replay_inputs(const Workload& w, std::uint64_t seed) {
  ReplayInputs in;
  workload::SyntheticLogSpec log_spec = workload::sdsc_blue_spec();
  log_spec.cpus = kReplayCpus;
  log_spec.duration_days = 4.0;
  util::Rng rng(util::derive_seed(seed, {0x4E9}));
  in.log = workload::generate_log(log_spec, rng);

  in.spec.app.num_tasks = 10;
  in.spec.app.min_seq_time = 60.0;
  in.spec.app.max_seq_time = 3600.0;
  in.spec.deadline_fraction = w.replay_deadline_fraction;
  in.spec.deadline_slack = w.replay_deadline_slack;
  in.spec.max_jobs = kReplayJobs;
  in.spec.seed = seed;

  in.config.shards = kReplayShards;
  in.config.threads = kReplayThreads;
  in.config.window = kReplayWindow;
  in.config.service.capacity = kReplayCpus / kReplayShards;
  pdes::PdesChaos chaos;
  chaos.injector.seed = util::derive_seed(seed, {0xC4A05});
  chaos.injector.outage_mean = 4.0 * 3600.0;
  chaos.injector.outage_procs_max = 4;
  chaos.injector.outage_duration_mean = 1800.0;
  in.config.chaos = chaos;

  pdes::LogSource source(in.log, in.spec);
  in.oracle = pdes::serial_replay(in.config, source);
  return in;
}

/// LogSource that times next() — the lazy DAG materialization every
/// archive replay pays per job — when asked to.
class TimedSource final : public pdes::SubmissionSource {
 public:
  TimedSource(const ReplayInputs& in, bool timed)
      : inner_(in.log, in.spec), timed_(timed) {}
  std::optional<double> peek_time() override { return inner_.peek_time(); }
  online::JobSubmission next() override {
    if (!timed_) return inner_.next();
    const std::int64_t t0 = obs::now_ns();
    online::JobSubmission job = inner_.next();
    ns_ += obs::now_ns() - t0;
    return job;
  }
  std::int64_t ns() const { return ns_; }

 private:
  pdes::LogSource inner_;
  bool timed_;
  std::int64_t ns_ = 0;
};

std::optional<std::string> replay_mismatch(const pdes::PdesResult& got,
                                           const pdes::PdesResult& want) {
  if (got.trace != want.trace) return "merged trace differs from the oracle";
  const auto& a = got.aggregates;
  const auto& b = want.aggregates;
  if (a.submitted != b.submitted || a.accepted != b.accepted ||
      a.counter_offered != b.counter_offered || a.rejected != b.rejected ||
      a.spillovers != b.spillovers)
    return "admission aggregates differ from the oracle";
  const auto& s = got.stats;
  const auto& t = want.stats;
  if (s.windows != t.windows || s.arrivals != t.arrivals ||
      s.events != t.events || s.disruptions != t.disruptions ||
      s.blind_probes != t.blind_probes || s.horizon != t.horizon)
    return "replay stats differ from the oracle";
  if (got.chaos != want.chaos) return "chaos counters differ from the oracle";
  return std::nullopt;
}

class ReplayPath {
 public:
  ReplayPath(const ReplayInputs& in, Report& report) : in_(in) {
    if (in.oracle.stats.arrivals == 0 || in.oracle.stats.disruptions == 0)
      report.fail("replay oracle is degenerate (no arrivals or disruptions)");
  }

  /// One replay pass of the whole stream.
  void slice(Instrumentation& instrumentation, Report& report) {
    TimedSource source(in_, instrumentation.on());
    std::optional<pdes::PdesResult> result;
    std::int64_t returned_ns = 0;
    const std::vector<obs::SpanEvent> spans =
        instrumentation.slice(layers, [&] {
          pdes::PdesReplayEngine engine(in_.config);
          const auto t0 = Clock::now();
          result.emplace(engine.run(source));
          returned_ns = obs::now_ns();
          pass_s_.push_back(seconds_since(t0));
        });
    ++report.attempted;
    if (auto err = replay_mismatch(*result, in_.oracle))
      report.fail("replay pass " + std::to_string(pass_s_.size()) + ": " +
                  *err);

    source_ns_ += static_cast<double>(source.ns());
    // Everything run() does after its last barrier: aggregates and the
    // per-shard trace merge.
    std::int64_t last_window_end = 0;
    for (const obs::SpanEvent& ev : spans)
      if (std::strcmp(ev.name, "pdes.window") == 0)
        last_window_end = std::max(last_window_end, ev.end_ns);
    if (last_window_end > 0)
      finalize_ns_ += static_cast<double>(returned_ns - last_window_end);
  }

  void report_end_to_end(Report& report) const {
    report.add("replay_jobs_per_s",
               static_cast<double>(in_.oracle.stats.arrivals) /
                   median(pass_s_),
               "1/s");
  }

  void report_layers(Report& report) const {
    const auto passes = static_cast<double>(pass_s_.size());
    const double jobs =
        passes * static_cast<double>(in_.oracle.stats.arrivals);
    const LayerLedger::Hist events = layers.hist("online.event");
    report.add("replay.source_us", per(source_ns_, jobs) / 1e3, "us");
    report.add("replay.dl_context_us",
               per(layers.self_ns("core.resscheddl.context"), jobs) / 1e3,
               "us");
    report.add("replay.window_us", layers.hist("pdes.window").mean() / 1e3,
               "us");
    report.add("replay.shard_advance_us",
               layers.hist_family("shard.", ".event_latency_ns").mean() / 1e3,
               "us");
    report.add("replay.barrier_stall_us",
               layers.hist("pdes.barrier.stall_ns").mean() / 1e3, "us");
    report.add("replay.event_us", events.mean() / 1e3, "us");
    report.add("replay.schedule_job_us",
               layers.hist("online.schedule_job").mean() / 1e3, "us");
    report.add("replay.repair_us", layers.hist("ft.repair").mean() / 1e3,
               "us");
    report.add("replay.finalize_us", per(finalize_ns_, passes) / 1e3, "us");
    report.add("replay.windows", per(layers.counter("pdes.windows"), passes),
               "count");
    report.add("replay.events_per_job", per(events.count, jobs), "count");
    report.add("replay.probes_per_job",
               per(static_cast<double>(in_.oracle.stats.blind_probes),
                   static_cast<double>(in_.oracle.stats.arrivals)),
               "count");
  }

  LayerLedger layers;

 private:
  const ReplayInputs& in_;
  std::vector<double> pass_s_;
  double source_ns_ = 0.0;
  double finalize_ns_ = 0.0;
};

// --- rpc -----------------------------------------------------------------------

struct RpcInputs {
  std::vector<dag::Dag> dags;
  /// Per DAG: deadline offset after the requested submit time, if any.
  std::vector<std::optional<double>> deadline_offsets;
};

RpcInputs make_rpc_inputs(const Workload& w, std::uint64_t seed) {
  RpcInputs in;
  util::Rng rng(util::derive_seed(seed, {0x49C}));
  for (int i = 0; i < kRpcDags; ++i) {
    dag::DagSpec spec;
    // About 40% of the 64 procs busy on average: jobs overlap and contend
    // for the calendar, while retired ones leave it (history_window), so
    // the engine's cost stays flat over a run.
    spec.num_tasks = static_cast<int>(rng.uniform_int(3, 8));
    spec.min_seq_time = 10.0;
    spec.max_seq_time = 100.0;
    in.dags.push_back(dag::generate(spec, rng));
    if (rng.bernoulli(w.rpc_deadline_fraction))
      in.deadline_offsets.emplace_back(
          rng.uniform(w.rpc_deadline_min, w.rpc_deadline_max));
    else
      in.deadline_offsets.emplace_back(std::nullopt);
  }
  return in;
}

srv::ServerCoreConfig rpc_core_config(const std::string& dir) {
  srv::ServerCoreConfig config;
  config.service.capacity = 64;
  config.service.history_window = 600.0;
  config.state_dir = dir;
  config.wal_sync = srv::WalSync::kBatch;
  return config;
}

/// The submit request for stream position `job`.
srv::proto::Request rpc_request(const RpcInputs& in, std::int64_t job) {
  const auto d = static_cast<std::size_t>(job) % in.dags.size();
  srv::proto::Request request;
  request.verb = srv::proto::Verb::kSubmit;
  request.job_id = static_cast<int>(job);
  request.time = static_cast<double>(job) * kRpcSpacing;
  if (in.deadline_offsets[d])
    request.deadline = request.time + *in.deadline_offsets[d];
  request.dag = in.dags[d];
  return request;
}

/// In-process reschedd: core + unix-socket server + acceptor thread.
class Daemon {
 public:
  explicit Daemon(const std::string& dir)
      : sock_(dir + "/d.sock"), core_(rpc_core_config(dir)) {
    core_.recover();
    srv::ServerOptions options;
    options.unix_path = sock_;
    server_ = std::make_unique<srv::Server>(core_, options);
    server_->start();
    acceptor_ = std::thread([this] { server_->serve(); });
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  const std::string& sock() const { return sock_; }

  /// Shuts the server down over the wire and joins the acceptor.
  void stop() {
    if (!acceptor_.joinable()) return;
    try {
      srv::Client::connect_unix(sock_).shutdown_server();
    } catch (const std::exception&) {
      server_->stop();
    }
    acceptor_.join();
  }

 private:
  std::string sock_;
  srv::ServerCore core_;
  std::unique_ptr<srv::Server> server_;
  std::thread acceptor_;
};

class RpcPath {
 public:
  RpcPath(const RpcInputs& in, const std::string& state_dir)
      : in_(in), dir_(state_dir + "/rpc-" + std::to_string(::getpid())) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    daemon_ = std::make_unique<Daemon>(dir_);
    client_.emplace(srv::Client::connect_unix(daemon_->sock()));
  }
  RpcPath(const RpcPath&) = delete;
  RpcPath& operator=(const RpcPath&) = delete;
  ~RpcPath() {
    client_.reset();
    daemon_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  /// Closed-loop rounds for about `quantum_s`.
  void slice(double quantum_s, Report& report) {
    const auto t_start = Clock::now();
    do {
      round(report);
    } while (seconds_since(t_start) < quantum_s);
  }

  /// Stops the daemon and checks what it acked: its own tallies, then a
  /// fresh daemon recovered from the WAL, which must land on the same ones.
  void finish(Instrumentation& instrumentation, Report& report) {
    const srv::proto::Response status = client_->status();
    client_.reset();
    daemon_.reset();
    if (!status.ok || !status.stats) {
      report.fail("rpc: whole-server status failed");
      return;
    }
    const srv::proto::ServerStats& live = *status.stats;
    if (live.submitted != static_cast<int>(submits_) ||
        live.wal_records != submits_)
      report.fail("rpc: daemon counted " + std::to_string(live.submitted) +
                  " submits / " + std::to_string(live.wal_records) +
                  " WAL records for " + std::to_string(submits_) +
                  " acked RPCs");
    srv::ServerCore recovered(rpc_core_config(dir_));
    recovered.recover();
    const srv::proto::ServerStats s = recovered.stats();
    if (s.submitted != live.submitted || s.accepted != live.accepted ||
        s.offered != live.offered || s.rejected != live.rejected ||
        s.wal_records != live.wal_records)
      report.fail("rpc: WAL recovery disagrees with the acked state");
    if (instrumentation.on()) time_codec(report);
  }

  void report_end_to_end(Report& report) const {
    report.add("rpc_per_s", kRpcBurst / median(round_s_), "1/s");
  }

  void report_layers(Report& report) const {
    const auto n = static_cast<double>(submits_);
    double round_s = 0.0;
    for (double s : round_s_) round_s += s;
    report.add("rpc.codec_us", per(codec_ns_, n) / 1e3, "us");
    report.add("rpc.round_trip_us",
               per(round_s, static_cast<double>(round_s_.size())) * 1e6, "us");
    report.add("rpc.server_ack_us",
               layers.hist("srv.rpc.submit.ns").mean() / 1e3, "us");
    report.add("rpc.lock_wait_us",
               layers.hist("srv.core.lock_wait.ns").mean() / 1e3, "us");
    report.add("rpc.engine_us", per(layers.hist("online.event").sum, n) / 1e3,
               "us");
    report.add("rpc.schedule_job_us",
               layers.hist("online.schedule_job").mean() / 1e3, "us");
    report.add("rpc.fsyncs_per_rpc", per(layers.counter("srv.wal.fsyncs"), n),
               "count");
    report.add("rpc.wal_bytes_per_rpc", per(layers.counter("srv.wal.bytes"), n),
               "B");
    report.add("rpc.batch_frames", layers.hist("srv.core.batch.frames").mean(),
               "count");
  }

  LayerLedger layers;

 private:
  /// One pipelined burst and its durable acks.
  void round(Report& report) {
    std::vector<srv::proto::Request> requests;
    for (int k = 0; k < kRpcBurst; ++k)
      requests.push_back(
          rpc_request(in_, static_cast<std::int64_t>(submits_) + 1 + k));
    submits_ += requests.size();
    report.attempted += requests.size();
    std::vector<srv::proto::Response> responses;
    const auto t0 = Clock::now();
    try {
      responses = client_->pipeline(requests);
    } catch (const std::exception& e) {
      report.fail(std::string("rpc: ") + e.what());
      return;
    }
    round_s_.push_back(seconds_since(t0));
    for (std::size_t k = 0; k < requests.size(); ++k) {
      const srv::proto::Response& r = responses.at(k);
      const bool state_ok = r.state == "accepted" ||
                            (requests[k].deadline &&
                             (r.state == "offered" || r.state == "rejected"));
      if (!r.ok || !state_ok || r.job_id != requests[k].job_id)
        report.fail("rpc: submit " + std::to_string(requests[k].job_id) +
                    " answered " + r.state + " " + r.error);
    }
  }

  /// The wire codec, timed on this run's own requests: client encode +
  /// frame, server frame parse + decode.
  void time_codec(Report& report) {
    std::string payload;
    for (std::int64_t job = 1; job <= static_cast<std::int64_t>(submits_);
         ++job) {
      const srv::proto::Request request = rpc_request(in_, job);
      const std::int64_t t0 = obs::now_ns();
      const std::string framed = srv::proto::frame(srv::proto::encode(request));
      std::size_t consumed = 0;
      const bool parsed =
          srv::proto::try_parse_frame(framed, consumed, payload) ==
              srv::proto::FrameStatus::kOk &&
          srv::proto::decode_request(payload).job_id == request.job_id;
      codec_ns_ += static_cast<double>(obs::now_ns() - t0);
      if (!parsed) report.fail("rpc: codec round trip failed");
    }
  }

  const RpcInputs& in_;
  std::string dir_;
  std::unique_ptr<Daemon> daemon_;
  std::optional<srv::Client> client_;
  std::vector<double> round_s_;
  std::uint64_t submits_ = 0;
  double codec_ns_ = 0.0;
};

// --- driver ----------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::string state_dir;
};

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::runtime_error("--trace takes 0 or 1");
      opt.trace = value == "1";
      have_trace = true;
    } else if (flag == "--state-dir") {
      opt.state_dir = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      opt.state_dir.empty())
    throw std::runtime_error(
        "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
        "--state-dir DIR");
  if (!(opt.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
  return opt;
}

int run(const Options& opt) {
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads)
    if (opt.workload == candidate.name) w = &candidate;
  if (w == nullptr)
    throw std::runtime_error("unknown workload " + opt.workload);

  std::vector<double> setup_s;
  std::vector<sim::Instance> cells;
  std::optional<ReplayInputs> replay_in;
  std::optional<RpcInputs> rpc_in;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cells.clear();
    replay_in.reset();
    rpc_in.reset();
    const auto t0 = Clock::now();
    cells = make_sweep_cells(opt.seed);
    replay_in.emplace(make_replay_inputs(*w, opt.seed));
    rpc_in.emplace(make_rpc_inputs(*w, opt.seed));
    setup_s.push_back(seconds_since(t0));
  }

  Report report;
  Instrumentation instrumentation(opt.trace);
  SweepPath sweep(cells);
  ReplayPath replay(*replay_in, report);
  RpcPath rpc(*rpc_in, opt.state_dir);
  const auto t_start = Clock::now();
  while (seconds_since(t_start) < opt.seconds || !sweep.covered()) {
    instrumentation.slice(sweep.layers,
                          [&] { sweep.slice(kSliceSeconds, report); });
    replay.slice(instrumentation, report);
    instrumentation.slice(rpc.layers, [&] { rpc.slice(kSliceSeconds, report); });
  }
  rpc.finish(instrumentation, report);

  if (opt.trace) {
    sweep.report_layers(report);
    replay.report_layers(report);
    rpc.report_layers(report);
  } else {
    sweep.report_end_to_end(report);
    replay.report_end_to_end(report);
    rpc.report_end_to_end(report);
    report.add("setup_s", median(setup_s), "s");
  }
  report.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
