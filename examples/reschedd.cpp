// reschedd — long-running scheduling daemon (DESIGN.md §10).
//
// Wraps the sharded router (--shards N; one shard, the default, is a
// pass-through to one online engine) behind the framed JSONL protocol on a
// unix or TCP socket, with write-ahead durability under --state-dir. Drive
// it with rsub / rstat:
//
//   $ reschedd --unix /tmp/resched.sock --state-dir /var/lib/resched &
//   $ rsub --unix /tmp/resched.sock --job 1 --t 0 --chain 3 --seq 3600
//   $ rstat --unix /tmp/resched.sock
//   $ rsub --unix /tmp/resched.sock --shutdown
//
// The daemon exits when a client issues the shutdown verb; on restart it
// recovers the pre-crash calendar from snapshot + WAL replay.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "src/obs/obs.hpp"
#include "src/srv/server.hpp"
#include "src/srv/server_core.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: reschedd (--unix PATH | --tcp PORT [--host H])\n"
               "                [--state-dir DIR] [--capacity N] [--shards N]\n"
               "                [--wal-sync always|batch|none]\n"
               "                [--snapshot-every N] [--metrics]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  resched::srv::ServerCoreConfig core_config;
  resched::srv::ServerOptions server_options;
  bool metrics = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--unix") {
      server_options.unix_path = value();
    } else if (arg == "--tcp") {
      server_options.tcp_port = std::atoi(value().c_str());
    } else if (arg == "--host") {
      server_options.tcp_host = value();
    } else if (arg == "--state-dir") {
      core_config.state_dir = value();
    } else if (arg == "--capacity") {
      core_config.service.capacity = std::atoi(value().c_str());
    } else if (arg == "--shards") {
      core_config.shards = std::atoi(value().c_str());
    } else if (arg == "--snapshot-every") {
      core_config.snapshot_every =
          static_cast<std::uint64_t>(std::atoll(value().c_str()));
    } else if (arg == "--wal-sync") {
      const std::string mode = value();
      if (mode == "always")
        core_config.wal_sync = resched::srv::WalSync::kAlways;
      else if (mode == "batch")
        core_config.wal_sync = resched::srv::WalSync::kBatch;
      else if (mode == "none")
        core_config.wal_sync = resched::srv::WalSync::kNone;
      else
        usage();
    } else if (arg == "--metrics") {
      metrics = true;
    } else {
      usage();
    }
  }
  if (server_options.unix_path.empty() && server_options.tcp_port < 0) usage();

  try {
    if (metrics) resched::obs::set_metrics_enabled(true);
    resched::srv::ServerCore core(core_config);
    core.recover();
    resched::srv::Server server(core, server_options);
    server.start();
    if (!server_options.unix_path.empty())
      std::fprintf(stderr, "reschedd: listening on %s\n",
                   server_options.unix_path.c_str());
    else
      std::fprintf(stderr, "reschedd: listening on %s:%d\n",
                   server_options.tcp_host.c_str(), server.port());
    server.serve();
    core.finalize();
    const auto stats = core.stats();
    std::fprintf(stderr,
                 "reschedd: shutdown — %d submitted, %d accepted, %d offered, "
                 "%d rejected, %d cancelled, %llu WAL records\n",
                 stats.submitted, stats.accepted, stats.offered,
                 stats.rejected, stats.cancelled,
                 static_cast<unsigned long long>(stats.wal_records));
    if (metrics) {
      std::ostringstream table;
      resched::obs::registry().snapshot().write_table(table);
      std::fputs(table.str().c_str(), stderr);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reschedd: %s\n", e.what());
    return 1;
  }
  return 0;
}
