// Concurrent-client stress test (DESIGN.md §10). Runs under the TSan CI
// leg as well as the default matrix.
//
// Eight threads hammer one in-process daemon over a real unix socket with
// interleaved submit / status / cancel traffic. The interleaving is
// nondeterministic — but the server's core mutex defines a canonical
// serialization, and the WAL captures it. Afterwards a fresh ServerCore
// replays that WAL single-threaded ("golden replay") and must reproduce
//
//   * the live run's trace.jsonl and calendar.tsv byte-for-byte, and
//   * every admission outcome each client thread observed — a job the
//     live daemon answered "accepted" / "offered" / "cancelled" must be
//     in that state after replay too.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/dag/dag.hpp"
#include "src/srv/client.hpp"
#include "src/srv/proto.hpp"
#include "src/srv/server.hpp"
#include "src/srv/server_core.hpp"

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

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 40;

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
  char tmpl[] = "/tmp/resched_srv_stress_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

Dag chain_dag(Rng& rng) {
  const int tasks = 1 + static_cast<int>(rng.below(3));
  std::vector<TaskCost> costs;
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < tasks; ++i) {
    costs.push_back({900.0 + static_cast<double>(rng.below(3600)),
                     0.5 * static_cast<double>(rng.below(3))});
    if (i > 0) edges.emplace_back(i - 1, i);
  }
  return Dag(std::move(costs), edges);
}

/// What one client thread observed for one of its jobs.
struct Observed {
  std::string submit_state;  ///< accepted / offered / rejected
  bool cancelled_ok = false;
};

void client_thread(const std::string& sock, int thread_index,
                   std::map<int, Observed>& observed) {
  Rng rng(0x57AE55 + static_cast<std::uint64_t>(thread_index) * 7919);
  Client client = Client::connect_unix(sock);
  std::vector<int> my_jobs;
  int next_job = thread_index * 100000 + 1;
  for (int op = 0; op < kOpsPerThread; ++op) {
    const std::size_t roll = rng.below(10);
    // Times ride the server clock: status answers carry now(), and the
    // server clamps any stale request time up to now, so 0 is always safe.
    if (roll < 6 || my_jobs.empty()) {
      const int job = next_job++;
      std::optional<double> deadline;
      const std::size_t kind = rng.below(3);
      const double t = static_cast<double>(rng.below(1000));
      // The server clamps submit times up to now(), and now() never
      // exceeds the largest request time any thread sends (< 1000) — so a
      // deadline above 1000 stays valid under every interleaving. 1001..
      // 3000 is often too tight for a multi-hour chain (counter-offered),
      // sometimes loose enough to admit; both outcomes are fair game.
      if (kind == 1) deadline = 1001.0 + static_cast<double>(rng.below(2000));
      if (kind == 2) deadline = t + 1e7;  // generous
      const proto::Response r = client.submit(job, t, chain_dag(rng), deadline);
      ASSERT_TRUE(r.ok) << r.error;
      observed[job].submit_state = r.state;
      my_jobs.push_back(job);
    } else if (roll < 8) {
      const proto::Response r =
          client.status(my_jobs[rng.below(my_jobs.size())]);
      ASSERT_TRUE(r.ok) << r.error;
    } else {
      // Cancel one of our own jobs; "already cancelled" / "already
      // finished" / not-cancellable answers are legitimate outcomes.
      const int job = my_jobs[rng.below(my_jobs.size())];
      const proto::Response r = client.cancel(job, 0.0);
      if (r.ok) observed[job].cancelled_ok = true;
    }
  }
}

bool outcome_matches(const Observed& seen, const std::string& golden_state) {
  if (seen.cancelled_ok) return golden_state == "cancelled";
  if (seen.submit_state == "accepted")
    return golden_state == "accepted" || golden_state == "done";
  return golden_state == seen.submit_state;
}

/// Sends one framed `payload` over a fresh connection to `sock` and
/// returns the payload of the response frame read back.
std::string raw_round_trip(const std::string& sock, const std::string& payload) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sock.c_str(), sizeof addr.sun_path - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  const std::string framed = proto::frame(payload);
  EXPECT_EQ(::write(fd, framed.data(), framed.size()),
            static_cast<ssize_t>(framed.size()));
  std::string buffer, response;
  std::size_t consumed = 0;
  char chunk[4096];
  while (proto::try_parse_frame(buffer, consumed, response) ==
         proto::FrameStatus::kNeedMore) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

}  // namespace

// A frame that arrives intact but does not decode is answered like any
// other error: the message alone (here the DAG constructor's check, whose
// diagnostic names the failed expression and its source file) and null
// offer, start and finish. It reached no engine, so `now` is null too.
TEST(SrvErrors, MalformedFrameAnswersWithNullWindowAndNoSourcePath) {
  const std::string dir = make_temp_dir();
  const std::string sock = dir + "/d.sock";
  ServerCoreConfig config;
  config.service.capacity = 16;
  config.state_dir = dir;
  ServerCore core(config);
  core.recover();
  Server server(core, [&] {
    ServerOptions options;
    options.unix_path = sock;
    return options;
  }());
  server.start();
  std::thread acceptor([&server] { server.serve(); });

  const std::string self_loop = raw_round_trip(
      sock,
      "{\"verb\":\"submit\",\"job\":5,\"t\":0,\"deadline\":null,"
      "\"dag\":{\"costs\":[[600,0]],\"edges\":[[0,0]]}}");
  EXPECT_EQ(self_loop,
            "{\"ok\":false,\"error\":\"self-loop edge\",\"job\":-1,"
            "\"state\":\"error\",\"offer\":null,\"start\":null,"
            "\"finish\":null,\"now\":null}");
  const proto::Response not_json =
      proto::decode_response(raw_round_trip(sock, "not json"));
  EXPECT_FALSE(not_json.ok);
  EXPECT_EQ(not_json.error.find(".cpp"), std::string::npos) << not_json.error;
  EXPECT_TRUE(std::isnan(not_json.offer));
  EXPECT_TRUE(std::isnan(not_json.start));
  EXPECT_TRUE(std::isnan(not_json.finish));

  Client::connect_unix(sock).shutdown_server();
  acceptor.join();
  core.finalize();
}

TEST(SrvStress, ConcurrentClientsMatchGoldenWalReplay) {
  const std::string dir = make_temp_dir();
  const std::string sock = dir + "/d.sock";

  ServerCoreConfig config;
  config.service.capacity = 16;
  config.state_dir = dir;
  config.wal_sync = WalSync::kBatch;

  // --- live phase: 8 real clients against one in-process server ----------
  {
    ServerCore core(config);
    core.recover();
    Server server(core, [&] {
      ServerOptions options;
      options.unix_path = sock;
      return options;
    }());
    server.start();
    std::thread acceptor([&server] { server.serve(); });

    std::vector<std::map<int, Observed>> observed(kThreads);
    {
      std::vector<std::thread> clients;
      clients.reserve(kThreads);
      for (int i = 0; i < kThreads; ++i)
        clients.emplace_back(client_thread, sock, i, std::ref(observed[i]));
      for (std::thread& t : clients) t.join();
    }
    Client::connect_unix(sock).shutdown_server();
    acceptor.join();
    core.finalize();

    const std::string live_trace = read_file(dir + "/trace.jsonl");
    const std::string live_calendar = read_file(dir + "/calendar.tsv");
    ASSERT_FALSE(live_trace.empty());

    // --- golden phase: single-threaded WAL replay -------------------------
    ServerCore golden(config);
    golden.recover();

    int checked = 0;
    for (const auto& per_thread : observed)
      for (const auto& [job, seen] : per_thread) {
        proto::Request status;
        status.verb = proto::Verb::kStatus;
        status.job_id = job;
        const proto::Response r = golden.apply(status);
        EXPECT_TRUE(outcome_matches(seen, r.state))
            << "job " << job << ": live saw submit=" << seen.submit_state
            << " cancelled_ok=" << seen.cancelled_ok << ", golden replay says "
            << r.state;
        ++checked;
      }
    EXPECT_GE(checked, kThreads * kOpsPerThread / 2);

    golden.finalize();
    EXPECT_EQ(read_file(dir + "/trace.jsonl"), live_trace);
    EXPECT_EQ(read_file(dir + "/calendar.tsv"), live_calendar);
  }
}
