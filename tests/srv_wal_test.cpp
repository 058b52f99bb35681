// WAL kill-and-resume differential test (DESIGN.md §10).
//
// Drives a seeded job script through a LIVE daemon (forked child, real
// unix socket), SIGKILLs it after the k-th acknowledged request for every
// kill point k, restarts it against the same state dir, finishes the
// script, and demands the shutdown artifacts — trace.jsonl and
// calendar.tsv — byte-identical to an uninterrupted reference run. An
// acknowledged request is a durable request (the server fsyncs before
// responding), so no acked work may be lost at ANY kill point; half the
// points run with snapshotting enabled to cover the snapshot + truncate
// crash window, and a short sharded leg covers replay-from-genesis.
//
// RESCHED_SRV_KILL_POINTS caps how many kill points the single-engine legs
// sweep (default: all of them).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/dag/dag.hpp"
#include "src/srv/client.hpp"
#include "src/srv/proto.hpp"
#include "src/srv/server.hpp"
#include "src/srv/server_core.hpp"
#include "src/srv/wal.hpp"
#include "src/util/error.hpp"
#include "tests/fnv1a.hpp"

namespace proto = resched::srv::proto;
using resched::dag::Dag;
using resched::dag::TaskCost;
using resched::srv::Client;
using resched::srv::Server;
using resched::srv::ServerCore;
using resched::srv::ServerCoreConfig;
using resched::srv::ServerOptions;
using resched::srv::WalSync;

namespace {

struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed | 1) {}
  std::uint64_t next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1Dull;
  }
  std::size_t below(std::size_t n) { return next() % n; }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string make_temp_dir() {
  char tmpl[] = "/tmp/resched_srv_wal_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

/// The seeded request script. Deterministic and state-independent: accepts
/// aimed at jobs that were admitted outright simply fail (ok = false, not
/// logged), which replays identically because they never reach the WAL.
std::vector<proto::Request> build_script(std::uint64_t seed, int jobs) {
  Rng rng(seed);
  std::vector<proto::Request> script;
  const auto dag_for = [&rng]() {
    const int tasks = 1 + static_cast<int>(rng.below(3));
    std::vector<TaskCost> costs;
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i < tasks; ++i) {
      costs.push_back({600.0 + static_cast<double>(rng.below(6600)),
                       0.25 * static_cast<double>(rng.below(4))});
      if (i > 0) edges.emplace_back(i - 1, i);
    }
    return Dag(std::move(costs), edges);
  };
  for (int j = 1; j <= jobs; ++j) {
    const double t = 50.0 * static_cast<double>(script.size());
    proto::Request submit;
    submit.verb = proto::Verb::kSubmit;
    submit.job_id = j;
    submit.time = t;
    submit.dag = dag_for();
    if (j % 3 == 0)
      submit.deadline = t + 1.0;  // infeasibly tight -> counter-offered
    else if (j % 3 == 1)
      submit.deadline = t + 1e6;  // generous -> accepted
    script.push_back(submit);

    if (j % 3 == 0) {  // chase the counter-offer
      proto::Request accept;
      accept.verb = proto::Verb::kCounterOfferAccept;
      accept.job_id = j;
      accept.time = t + 10.0;
      script.push_back(accept);
    }
    if (j % 4 == 0) {  // cancel an earlier job mid-flight
      proto::Request cancel;
      cancel.verb = proto::Verb::kCancel;
      cancel.job_id = j - 1;
      cancel.time = t + 20.0;
      script.push_back(cancel);
    }
  }
  return script;
}

ServerCoreConfig daemon_config(const std::string& state_dir, int shards,
                               std::uint64_t snapshot_every) {
  ServerCoreConfig config;
  config.shards = shards;
  config.service.capacity = 16;
  config.state_dir = state_dir;
  config.wal_sync = WalSync::kBatch;
  config.snapshot_every = snapshot_every;
  return config;
}

/// Forks a real daemon process serving `sock`. The child never returns.
pid_t spawn_daemon(const ServerCoreConfig& config, const std::string& sock) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  // Child: run the daemon; _exit (not exit) so gtest's atexit machinery
  // and shared stdio state never run twice.
  try {
    ServerCore core(config);
    core.recover();
    ServerOptions options;
    options.unix_path = sock;
    Server server(core, options);
    server.start();
    server.serve();
    core.finalize();
    _exit(0);
  } catch (...) {
    _exit(3);
  }
}

Client connect_with_retry(const std::string& sock) {
  for (int attempt = 0; attempt < 2500; ++attempt) {
    try {
      return Client::connect_unix(sock);
    } catch (const std::exception&) {
      usleep(2000);
    }
  }
  throw std::runtime_error("daemon never came up on " + sock);
}

void reap(pid_t pid) {
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
}

void kill_daemon(pid_t pid) {
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  reap(pid);
}

struct Artifacts {
  std::string trace;
  std::string calendar;
};

Artifacts collect(const std::string& state_dir) {
  return {read_file(state_dir + "/trace.jsonl"),
          read_file(state_dir + "/calendar.tsv")};
}

/// Runs the whole script uninterrupted through one daemon lifetime.
Artifacts reference_run(const std::vector<proto::Request>& script, int shards) {
  const std::string dir = make_temp_dir();
  const std::string sock = dir + "/d.sock";
  const pid_t pid = spawn_daemon(daemon_config(dir, shards, 0), sock);
  {
    Client client = connect_with_retry(sock);
    for (const proto::Request& request : script) client.call(request);
    client.shutdown_server();
  }
  reap(pid);
  return collect(dir);
}

/// Runs the script with a SIGKILL after request `kill_after`, then a
/// restart that finishes the remainder and shuts down cleanly.
Artifacts killed_run(const std::vector<proto::Request>& script,
                     std::size_t kill_after, int shards,
                     std::uint64_t snapshot_every) {
  const std::string dir = make_temp_dir();
  const std::string sock = dir + "/d.sock";
  const ServerCoreConfig config = daemon_config(dir, shards, snapshot_every);

  pid_t pid = spawn_daemon(config, sock);
  {
    Client client = connect_with_retry(sock);
    for (std::size_t i = 0; i < kill_after; ++i) client.call(script[i]);
  }  // client closed before the SIGKILL so the fd never leaks into phase 2
  kill_daemon(pid);

  pid = spawn_daemon(config, sock);
  {
    Client client = connect_with_retry(sock);
    for (std::size_t i = kill_after; i < script.size(); ++i)
      client.call(script[i]);
    client.shutdown_server();
  }
  reap(pid);
  return collect(dir);
}

int kill_point_budget(int fallback) {
  const char* env = std::getenv("RESCHED_SRV_KILL_POINTS");
  if (env == nullptr) return fallback;
  const int v = std::atoi(env);
  return v > 0 ? v : fallback;
}

/// Every k in [0, n] if the budget allows, else an evenly seeded sample.
std::vector<std::size_t> pick_kill_points(std::size_t n, int budget) {
  std::vector<std::size_t> points;
  if (static_cast<std::size_t>(budget) >= n + 1) {
    for (std::size_t k = 0; k <= n; ++k) points.push_back(k);
    return points;
  }
  Rng rng(0xBADC0DE);
  std::vector<bool> taken(n + 1, false);
  while (points.size() < static_cast<std::size_t>(budget)) {
    const std::size_t k = rng.below(n + 1);
    if (taken[k]) continue;
    taken[k] = true;
    points.push_back(k);
  }
  return points;
}

}  // namespace

TEST(SrvWal, KillAndResumeIsByteIdenticalAtEveryKillPoint) {
  const std::vector<proto::Request> script = build_script(0x5EED, 22);
  const Artifacts reference = reference_run(script, /*shards=*/1);
  ASSERT_FALSE(reference.trace.empty());
  ASSERT_FALSE(reference.calendar.empty());

  const std::vector<std::size_t> points =
      pick_kill_points(script.size(), kill_point_budget(32));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::size_t k = points[i];
    // Alternate kill points between snapshot-off and snapshot-every-3 so
    // the sweep exercises both pure-WAL replay and snapshot + rid-skip.
    const std::uint64_t snapshot_every = (i % 2 == 0) ? 0 : 3;
    const Artifacts got = killed_run(script, k, 1, snapshot_every);
    EXPECT_EQ(got.trace, reference.trace)
        << "trace diverged, kill point " << k << " snapshot_every "
        << snapshot_every;
    EXPECT_EQ(got.calendar, reference.calendar)
        << "calendar diverged, kill point " << k << " snapshot_every "
        << snapshot_every;
  }
}

TEST(SrvWal, ShardedKillAndResumeReplaysFromGenesis) {
  const std::vector<proto::Request> script = build_script(0x2BAD, 10);
  const Artifacts reference = reference_run(script, /*shards=*/2);
  ASSERT_FALSE(reference.trace.empty());

  for (const std::size_t k : {std::size_t{0}, script.size() / 3,
                              2 * script.size() / 3, script.size()}) {
    const Artifacts got = killed_run(script, k, 2, /*snapshot_every=*/0);
    EXPECT_EQ(got.trace, reference.trace) << "kill point " << k;
    EXPECT_EQ(got.calendar, reference.calendar) << "kill point " << k;
  }
}

// The replay path must also hold without any socket or process churn:
// apply the WAL of a finished run to a fresh in-process core and demand
// the same artifacts. This is the fast diagnostic when the full
// kill-sweep fails — it isolates ServerCore from the transport.
TEST(SrvWal, InProcessRecoverMatchesLiveRun) {
  const std::vector<proto::Request> script = build_script(0x1DEA, 12);

  const std::string live_dir = make_temp_dir();
  ServerCoreConfig config = daemon_config(live_dir, 1, 0);
  {
    ServerCore core(config);
    core.recover();
    for (const proto::Request& request : script) {
      std::uint64_t lsn = 0;
      core.apply(request, &lsn);
      core.sync(lsn);
    }
    core.finalize();
  }
  const Artifacts live = collect(live_dir);

  // Recover from the same state dir: full WAL replay, then re-finalize.
  {
    ServerCore core(config);
    core.recover();
    core.finalize();
  }
  const Artifacts recovered = collect(live_dir);
  EXPECT_EQ(recovered.trace, live.trace);
  EXPECT_EQ(recovered.calendar, live.calendar);
}

/// A spilled job is answered with the decision of the shard that took it.
/// Job 3's finish floor passes on shard 0 (first choice, busy until 1000)
/// but its chain cannot finish there by 1100, so shard 0's engine rejects
/// it and the router spills it to shard 1, which accepts.
TEST(SrvShards, SpilledJobGetsTheAcceptingShardsDecisionAndWindow) {
  ServerCoreConfig config;
  config.shards = 2;
  config.service.capacity = 8;
  ServerCore core(config);
  core.recover();
  const auto submit = [&core](int job, double t, Dag dag,
                              std::optional<double> deadline) {
    proto::Request request;
    request.verb = proto::Verb::kSubmit;
    request.job_id = job;
    request.time = t;
    request.dag = std::move(dag);
    request.deadline = deadline;
    return core.apply(request);
  };
  EXPECT_EQ(submit(1, 0.0, Dag({{8000.0, 0.0}}, {}), std::nullopt).state,
            "accepted");
  EXPECT_EQ(submit(2, 0.0, Dag({{160000.0, 0.0}}, {}), 40000.0).state,
            "accepted");
  const std::pair<int, int> chain[] = {{0, 1}};
  const proto::Response spilled =
      submit(3, 10.0, Dag({{600.0, 0.0}, {600.0, 0.0}}, chain), 1100.0);
  EXPECT_TRUE(spilled.ok);
  EXPECT_EQ(spilled.state, "accepted");
  EXPECT_EQ(spilled.start, 200.0);
  EXPECT_EQ(spilled.finish, 1100.0);
  const proto::ServerStats stats = core.stats();
  EXPECT_EQ(stats.accepted, 3);
  EXPECT_EQ(stats.rejected, 0);

  // An accepted job is cancellable on the shard that holds it.
  proto::Request cancel;
  cancel.verb = proto::Verb::kCancel;
  cancel.job_id = 3;
  cancel.time = 20.0;
  const proto::Response cancelled = core.apply(cancel);
  EXPECT_TRUE(cancelled.ok) << cancelled.error;
  EXPECT_EQ(cancelled.state, "cancelled");
}

namespace {

proto::Request make_request(proto::Verb verb, int job, double t) {
  proto::Request request;
  request.verb = verb;
  request.job_id = job;
  request.time = t;
  return request;
}

proto::Request best_effort_submit(int job, double t, double seconds) {
  proto::Request submit = make_request(proto::Verb::kSubmit, job, t);
  submit.dag = Dag({{seconds, 0.0}}, {});
  return submit;
}

/// The pinned daemon script: best-effort, loose-deadline and infeasibly
/// tight submits, counter-offer accepts, cancels (live, finished,
/// repeated, unknown), submits in the daemon's past, a duplicate id, a
/// deadline before the clamped submit time, and status reads of single
/// jobs and of the whole server. A two-shard daemon rejects the tight
/// submits without a quote, so its accepts fail and are never logged.
std::vector<proto::Request> pin_script() {
  std::vector<proto::Request> script;
  script.push_back(make_request(proto::Verb::kStatus, -1, 0.0));
  for (int j = 1; j <= 18; ++j) {
    const double t = 40.0 * static_cast<double>(j - 1);
    std::vector<TaskCost> costs;
    std::vector<std::pair<int, int>> edges;
    for (int v = 0; v <= j % 3; ++v) {
      costs.push_back({900.0 + 300.0 * static_cast<double>((7 * j + v) % 5),
                       0.2 * static_cast<double>(v % 3)});
      if (v > 0) edges.emplace_back(v - 1, v);
    }
    proto::Request submit =
        make_request(proto::Verb::kSubmit, j, j % 7 == 0 ? t - 100.0 : t);
    submit.dag = Dag(std::move(costs), edges);
    if (j % 3 == 0)
      submit.deadline = t + 1.0;  // infeasibly tight
    else if (j % 3 == 1)
      submit.deadline = t + 1e6;  // generous
    script.push_back(submit);
    if (j % 3 == 0)
      script.push_back(
          make_request(proto::Verb::kCounterOfferAccept, j, t + 5.0));
    if (j % 4 == 0)
      script.push_back(make_request(proto::Verb::kCancel, j - 1, t + 10.0));
    if (j % 5 == 0)
      script.push_back(make_request(proto::Verb::kStatus, j - 2, t + 12.0));
    if (j % 6 == 0)
      script.push_back(make_request(proto::Verb::kStatus, -1, t + 15.0));
  }
  script.push_back(best_effort_submit(2, 800.0, 600.0));  // duplicate id
  script.push_back(make_request(proto::Verb::kCancel, 99, 800.0));
  script.push_back(make_request(proto::Verb::kCounterOfferAccept, 1, 800.0));
  script.push_back(make_request(proto::Verb::kCancel, 3, 810.0));
  proto::Request late = make_request(proto::Verb::kSubmit, 19, 0.0);
  late.dag = Dag({{600.0, 0.0}}, {});
  late.deadline = 50.0;  // before the clamped submit time: refused
  script.push_back(late);
  script.push_back(best_effort_submit(20, 20000.0, 1200.0));
  for (int j = 1; j <= 20; ++j)
    script.push_back(make_request(proto::Verb::kStatus, j, 20000.0));
  script.push_back(make_request(proto::Verb::kStatus, -1, 20000.0));
  return script;
}

struct PinnedHashes {
  std::uint64_t responses = 0;
  std::uint64_t wal = 0;
  std::uint64_t trace = 0;
  std::uint64_t calendar = 0;
};

/// Applies `script` to `core` one request at a time, appending each
/// encoded response and a newline to `responses`.
void apply_script(ServerCore& core, const std::vector<proto::Request>& script,
                  std::string& responses) {
  for (const proto::Request& request : script) {
    std::uint64_t lsn = 0;
    responses += proto::encode(core.apply(request, &lsn)) + '\n';
    core.sync(lsn);
  }
}

PinnedHashes hash_state_dir(const std::string& dir,
                            const std::string& responses) {
  using resched::fnv::fnv1a;
  return {fnv1a(responses), fnv1a(read_file(dir + "/wal")),
          fnv1a(read_file(dir + "/trace.jsonl")),
          fnv1a(read_file(dir + "/calendar.tsv"))};
}

PinnedHashes pinned_run(int shards) {
  const std::string dir = make_temp_dir();
  std::string responses;
  {
    ServerCore core(daemon_config(dir, shards, 0));
    core.recover();
    apply_script(core, pin_script(), responses);
    core.finalize();
  }
  return hash_state_dir(dir, responses);
}

}  // namespace

// What reschedd answers, logs and leaves behind for a fixed script, at one
// and two shards: any change to a response, a WAL byte, the trace or the
// calendar fails here. A literal changes only with a behaviour change
// named in CHANGES.md.
TEST(SrvPin, ResponsesWalTraceAndCalendarAtOneAndTwoShards) {
  const PinnedHashes one = pinned_run(1);
  EXPECT_EQ(one.responses, 0x969bb768e0c7286eull);
  EXPECT_EQ(one.wal, 0xdadc9659b55efcefull);
  EXPECT_EQ(one.trace, 0x838e1b14e72143fdull);
  EXPECT_EQ(one.calendar, 0x5d35ea9dc6fbabfaull);

  const PinnedHashes two = pinned_run(2);
  EXPECT_EQ(two.responses, 0x4919032f719b16f7ull);
  EXPECT_EQ(two.wal, 0x994a1155dd6ee37dull);
  EXPECT_EQ(two.trace, 0x8ca4202e20533922ull);
  EXPECT_EQ(two.calendar, 0xcd251c0a91671114ull);
}

// A daemon recovered from a snapshot with an empty WAL tail runs on the
// restored engine clock: status reports it, and a submit stamped before
// it is clamped up to it rather than refused in the engine's past. Its
// status also reports the events the live daemon processed, which the
// snapshot carries (the recovered status response is part of the pinned
// stream).
TEST(SrvPin, SnapshotRecoveryRunsOnTheRestoredClock) {
  const std::string dir = make_temp_dir();
  const ServerCoreConfig config = daemon_config(dir, 1, 3);
  std::string responses;
  double live_now = 0.0;
  std::uint64_t live_events = 0;
  {
    ServerCore core(config);
    core.recover();
    apply_script(core, pin_script(), responses);
    // Pad until the last snapshot covers every record.
    for (int job = 100; core.wal_records() % 3 != 0; ++job)
      apply_script(core, {best_effort_submit(job, 30000.0, 600.0)},
                   responses);
    live_now = core.now();
    live_events = core.stats().events;
  }
  ASSERT_TRUE(resched::srv::read_wal(dir + "/wal").records.empty());
  ASSERT_GT(live_now, 0.0);

  std::string recovered;
  {
    ServerCore core(config);
    core.recover();
    const proto::Response status =
        core.apply(make_request(proto::Verb::kStatus, -1, 0.0));
    EXPECT_EQ(status.now, live_now);
    ASSERT_TRUE(status.stats.has_value());
    EXPECT_EQ(status.stats->events, live_events);
    std::uint64_t lsn = 0;
    const proto::Response submit =
        core.apply(best_effort_submit(200, 0.0, 600.0), &lsn);
    core.sync(lsn);
    EXPECT_TRUE(submit.ok) << submit.error;
    EXPECT_GE(submit.start, live_now);
    recovered = proto::encode(status) + '\n' + proto::encode(submit) + '\n';
    apply_script(core, {make_request(proto::Verb::kStatus, 200, 0.0)},
                 recovered);
    core.finalize();
  }
  const PinnedHashes got = hash_state_dir(dir, responses + recovered);
  EXPECT_EQ(got.responses, 0x808a9abc8d35be20ull);
  EXPECT_EQ(got.wal, 0x3ebea0f30e522e6full);
  EXPECT_EQ(got.trace, 0x077df96a4d371385ull);
  EXPECT_EQ(got.calendar, 0x751e4f0fd047e7abull);
}

// The same history reports the same `events` whether the daemon comes
// back by replaying its whole WAL or from a snapshot plus the WAL tail.
TEST(SrvWal, StatusEventsAgreeAcrossRecoveryPaths) {
  auto events_before_and_after = [](std::uint64_t snapshot_every) {
    const std::string dir = make_temp_dir();
    const ServerCoreConfig config = daemon_config(dir, 1, snapshot_every);
    std::pair<std::uint64_t, std::uint64_t> events;
    {
      ServerCore core(config);
      core.recover();
      std::string responses;
      apply_script(core, pin_script(), responses);
      events.first = core.stats().events;
    }
    EXPECT_EQ(std::ifstream(dir + "/snapshot").good(), snapshot_every > 0);
    ServerCore core(config);
    core.recover();
    events.second = core.stats().events;
    return events;
  };
  const auto wal_only = events_before_and_after(0);
  const auto snapshot = events_before_and_after(3);
  EXPECT_GT(wal_only.first, 0u);
  EXPECT_EQ(wal_only.second, wal_only.first);
  EXPECT_EQ(snapshot.first, wal_only.first);
  EXPECT_EQ(snapshot.second, snapshot.first);
}

// A version-1 snapshot (no event count) is refused rather than misread.
TEST(SrvWal, VersionOneSnapshotIsRefused) {
  const std::string dir = make_temp_dir();
  const ServerCoreConfig config = daemon_config(dir, 1, 3);
  {
    ServerCore core(config);
    core.recover();
    std::string responses;
    apply_script(core,
                 {best_effort_submit(1, 0.0, 600.0),
                  best_effort_submit(2, 10.0, 600.0),
                  best_effort_submit(3, 20.0, 600.0)},
                 responses);
  }
  std::string snapshot = read_file(dir + "/snapshot");
  ASSERT_GT(snapshot.size(), 8u);
  ASSERT_EQ(snapshot[4], '\x02');  // little-endian u32 after the magic
  snapshot[4] = '\x01';
  {
    std::ofstream out(dir + "/snapshot", std::ios::binary | std::ios::trunc);
    out << snapshot;
  }
  ServerCore core(config);
  try {
    core.recover();
    ADD_FAILURE() << "a version-1 snapshot was loaded";
  } catch (const resched::Error& e) {
    EXPECT_EQ(e.message(), "srv: unsupported snapshot version");
  }
}

// A snapshot whose job-state byte names no JobRecord state is refused on
// recovery instead of loading a state no switch handles.
TEST(SrvWal, SnapshotWithAnUnknownJobStateIsRefused) {
  const std::string dir = make_temp_dir();
  const ServerCoreConfig config = daemon_config(dir, 1, 3);
  {
    ServerCore core(config);
    core.recover();
    std::string responses;
    apply_script(core,
                 {best_effort_submit(1, 0.0, 600.0),
                  best_effort_submit(2, 10.0, 600.0),
                  best_effort_submit(3, 20.0, 600.0)},
                 responses);
  }
  // Envelope: magic, version, capacity, shards (4 bytes each), next record
  // id (8), next internal id and five tallies (4 each), job count (8); then
  // the first job's client id and internal id (4 each) and its state byte.
  constexpr std::size_t kFirstJobState = 4 * 4 + 8 + 6 * 4 + 8 + 2 * 4;
  std::string snapshot = read_file(dir + "/snapshot");
  ASSERT_GT(snapshot.size(), kFirstJobState);
  ASSERT_EQ(snapshot[kFirstJobState], '\0');  // kAccepted
  snapshot[kFirstJobState] = '\x7f';
  {
    std::ofstream out(dir + "/snapshot", std::ios::binary | std::ios::trunc);
    out << snapshot;
  }
  ServerCore core(config);
  EXPECT_THROW(core.recover(), resched::Error);
}

// A refusal answers with its message alone: no failed expression, no
// source path, and null offer, start and finish.
TEST(SrvErrors, AcceptWithNoOpenOfferAnswersItsMessageOnly) {
  const std::string dir = make_temp_dir();
  ServerCore core(daemon_config(dir, 1, 0));
  core.recover();
  std::uint64_t lsn = 0;
  ASSERT_TRUE(core.apply(best_effort_submit(1, 0.0, 600.0), &lsn).ok);
  core.sync(lsn);
  const proto::Response refused =
      core.apply(make_request(proto::Verb::kCounterOfferAccept, 1, 10.0));
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error, "srv: no open counter-offer for this job");
  EXPECT_EQ(proto::encode(refused),
            "{\"ok\":false,\"error\":\"srv: no open counter-offer for this "
            "job\",\"job\":1,\"state\":\"error\",\"offer\":null,\"start\":"
            "null,\"finish\":null,\"now\":0}");
}
