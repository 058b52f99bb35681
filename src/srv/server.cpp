#include "src/srv/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "src/obs/obs.hpp"
#include "src/util/error.hpp"

namespace resched::srv {
namespace {

void send_all(int fd, std::string_view data) {
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
    RESCHED_CHECK(n > 0, "srv: send failed");
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  OBS_COUNT("srv.bytes.out", data.size());
}

#ifndef RESCHED_OBS_DISABLED
void record_rpc(proto::Verb verb, std::int64_t ns) {
  switch (verb) {
    case proto::Verb::kSubmit:
      OBS_COUNT("srv.rpc.submit", 1);
      OBS_HIST("srv.rpc.submit.ns", ns);
      break;
    case proto::Verb::kStatus:
      OBS_COUNT("srv.rpc.status", 1);
      OBS_HIST("srv.rpc.status.ns", ns);
      break;
    case proto::Verb::kCancel:
      OBS_COUNT("srv.rpc.cancel", 1);
      OBS_HIST("srv.rpc.cancel.ns", ns);
      break;
    case proto::Verb::kCounterOfferAccept:
      OBS_COUNT("srv.rpc.accept", 1);
      OBS_HIST("srv.rpc.accept.ns", ns);
      break;
    case proto::Verb::kShutdown:
      OBS_COUNT("srv.rpc.shutdown", 1);
      OBS_HIST("srv.rpc.shutdown.ns", ns);
      break;
  }
}
#endif

}  // namespace

Server::Server(ServerCore& core, ServerOptions options)
    : core_(core), options_(std::move(options)) {}

Server::~Server() {
  stop();
  // serve() normally joins; cover the start()-without-serve() case.
  std::vector<std::thread> leftovers;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    leftovers.swap(threads_);
  }
  for (std::thread& t : leftovers) t.join();
}

void Server::start() {
  RESCHED_CHECK(listen_fd_ < 0, "srv: server already started");
  if (!options_.unix_path.empty()) {
    RESCHED_CHECK(options_.unix_path.size() < sizeof(sockaddr_un{}.sun_path),
                  "srv: unix socket path too long");
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    RESCHED_CHECK(listen_fd_ >= 0, "srv: socket() failed");
    ::unlink(options_.unix_path.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    RESCHED_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof addr) == 0,
                  "srv: bind('" + options_.unix_path +
                      "') failed: " + std::strerror(errno));
  } else {
    RESCHED_CHECK(options_.tcp_port >= 0,
                  "srv: neither unix_path nor tcp_port configured");
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    RESCHED_CHECK(listen_fd_ >= 0, "srv: socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    RESCHED_CHECK(
        ::inet_pton(AF_INET, options_.tcp_host.c_str(), &addr.sin_addr) == 1,
        "srv: bad tcp_host");
    RESCHED_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof addr) == 0,
                  "srv: bind(tcp) failed: " + std::string(std::strerror(errno)));
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    RESCHED_CHECK(::getsockname(listen_fd_,
                                reinterpret_cast<sockaddr*>(&bound),
                                &len) == 0,
                  "srv: getsockname failed");
    port_ = ntohs(bound.sin_port);
  }
  RESCHED_CHECK(::listen(listen_fd_, 64) == 0, "srv: listen failed");
}

void Server::close_listener() {
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

void Server::stop() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  if (stopping_) return;
  stopping_ = true;
  close_listener();
  // Nudge parked reads so connection threads notice the shutdown.
  for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
}

void Server::serve() {
  RESCHED_CHECK(listen_fd_ >= 0, "srv: serve() before start()");
  while (true) {
    const int fd = ::accept(listen_fd_.load(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by stop()
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_) {
      ::close(fd);
      break;
    }
    OBS_COUNT("srv.conn.accepted", 1);
    conn_fds_.insert(fd);
    threads_.emplace_back([this, fd] { run_connection(fd); });
  }
  stop();
  // Join under no lock — connection threads take conn_mu_ on exit.
  while (true) {
    std::thread t;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (threads_.empty()) break;
      t = std::move(threads_.back());
      threads_.pop_back();
    }
    t.join();
  }
}

void Server::run_connection(int fd) {
  std::string buffer;
  std::string payload;
  char chunk[16 * 1024];
  bool saw_shutdown = false;

  std::string out;  ///< framed responses accumulated per drain
  /// Per drained flush: decode-phase results. slot_errors[i] holds the
  /// error response of an undecodable frame i; nullopt slots correspond,
  /// in order, to entries of `batch`.
  std::vector<std::optional<proto::Response>> slot_errors;
  std::vector<proto::Request> batch;
  std::vector<proto::Response> batch_responses;
#ifndef RESCHED_OBS_DISABLED
  struct PendingRpc {
    proto::Verb verb;
    std::int64_t t0;
  };
  std::vector<PendingRpc> pending_rpcs;
#endif

  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    OBS_COUNT("srv.bytes.in", static_cast<std::uint64_t>(n));
    buffer.append(chunk, static_cast<std::size_t>(n));

    // Drain every complete frame before touching the disk or the socket:
    // a pipelining client's whole burst is decoded up front, applied under
    // ONE core-lock acquisition (ServerCore::apply_batch), covered by ONE
    // fsync (group commit), and answered with ONE send. Responses still
    // release only after their LSNs are durable.
    bool close_conn = false;
    out.clear();
#ifndef RESCHED_OBS_DISABLED
    pending_rpcs.clear();
#endif
    std::uint64_t batch_lsn = 0;
    proto::FrameStatus status = proto::FrameStatus::kNeedMore;
    while (!saw_shutdown) {
      // Decode phase. Stops after a shutdown frame: frames pipelined
      // behind a successful shutdown must never reach the engine (they
      // stay in `buffer` and die with the connection, as before).
      slot_errors.clear();
      batch.clear();
      batch_responses.clear();
      bool stop_decode = false;
      std::size_t consumed = 0;
      while (!stop_decode &&
             (status = proto::try_parse_frame(buffer, consumed, payload)) ==
                 proto::FrameStatus::kOk) {
        buffer.erase(0, consumed);
        try {
          proto::Request request = proto::decode_request(payload);
          if (request.verb == proto::Verb::kShutdown) stop_decode = true;
          slot_errors.emplace_back(std::nullopt);
          batch.push_back(std::move(request));
        } catch (const std::exception& e) {
          slot_errors.emplace_back(proto::error_response(e));
        }
      }
      if (slot_errors.empty()) break;  // flush fully drained (or unframed)

      // Apply phase: the whole burst under one lock.
#ifndef RESCHED_OBS_DISABLED
      const bool timing = obs::metrics_enabled() && !batch.empty();
      const std::int64_t t0 = timing ? obs::now_ns() : 0;
#endif
      if (!batch.empty()) {
        std::unique_lock<std::mutex> lock(core_mu_);
#ifndef RESCHED_OBS_DISABLED
        if (timing) OBS_HIST("srv.core.lock_wait.ns", obs::now_ns() - t0);
        OBS_HIST("srv.core.batch.frames",
                 static_cast<std::int64_t>(batch.size()));
#endif
        const std::uint64_t lsn = core_.apply_batch(batch, batch_responses);
        if (lsn > batch_lsn) batch_lsn = lsn;
      }

      // Merge phase: responses go out in frame order.
      std::size_t bi = 0;
      for (const std::optional<proto::Response>& error : slot_errors) {
        const proto::Response& response =
            error.has_value() ? *error : batch_responses[bi];
        if (!error.has_value()) {
#ifndef RESCHED_OBS_DISABLED
          if (timing) pending_rpcs.push_back({batch[bi].verb, t0});
#endif
          if (batch[bi].verb == proto::Verb::kShutdown && response.ok)
            saw_shutdown = true;
          ++bi;
        }
        if (!response.ok) OBS_COUNT("srv.rpc.errors", 1);
        out += proto::frame(proto::encode(response));
      }
    }
    if (status == proto::FrameStatus::kCorrupt ||
        status == proto::FrameStatus::kOversized) {
      // Framing is gone — nothing further on this connection can be
      // trusted, and a response could tear mid-stream. Drop the client.
      OBS_COUNT("srv.frames.rejected", 1);
      close_conn = true;
    }

    // Group commit: the core lock is free while we wait on the disk, and
    // one flush covers the entire drained batch (lsn 0 = read-only batch,
    // sync returns immediately).
    core_.sync(batch_lsn);
#ifndef RESCHED_OBS_DISABLED
    if (!pending_rpcs.empty()) {
      const std::int64_t now = obs::now_ns();
      for (const PendingRpc& rpc : pending_rpcs)
        record_rpc(rpc.verb, now - rpc.t0);
    }
#endif
    if (!out.empty()) {
      try {
        send_all(fd, out);
      } catch (const std::exception&) {
        close_conn = true;  // peer went away mid-response
      }
    }
    if (saw_shutdown || close_conn) break;
  }

  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.erase(fd);
  }
  ::close(fd);
  OBS_COUNT("srv.conn.closed", 1);
  if (saw_shutdown) stop();
}

}  // namespace resched::srv
