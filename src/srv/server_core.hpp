// reschedd's transport-free brain (DESIGN.md §10).
//
// ServerCore owns the scheduling engine — one shard::ShardedService, whose
// one-shard form is a pass-through to a single online::SchedulerService —
// plus the client-id registry, the durability machinery, and the shutdown
// artifacts. The socket layer (src/srv/server.*) is a thin shell: it
// parses frames, serializes calls into apply() under one mutex, and ships
// the responses back; every scheduling decision and every byte of durable
// state lives here, which is what lets the WAL kill-and-resume test drive
// a bit-exact golden replay with no sockets at all.
//
// Durability protocol (write-ahead, group commit):
//
//   1. apply() stamps the request with its effective apply time
//      (t_eff = max(requested t, now) — the stream clock never goes
//      backwards) and, for counter-offer-accept, the accepted deadline,
//      then stages the resulting *effective* request JSON;
//   2. the engine validates the mutation and fires its WAL hook at the
//      write-ahead point — the staged record is appended to the log
//      (fsync policy-deferred) *before* any engine state changes; a
//      validation failure means nothing was logged;
//   3. the caller holds apply()'s returned LSN until WalWriter::sync_to
//      makes it durable, and only then releases the response — concurrent
//      connections share one fsync (group commit).
//
// Replaying the log through a fresh ServerCore with the same config
// re-applies the identical effective requests in the identical order, so
// the recovered calendar, registry, and JSONL trace are byte-identical to
// the pre-crash run. Snapshots (one shard only) bound replay time: the
// engine's RSFT checkpoint (src/ft/checkpoint.*) is wrapped in an envelope
// carrying the registry, tallies, accumulated trace text, the engine's
// processed-event count, and the next record id; records the snapshot
// already covers are skipped by rid on recovery, so a crash between
// snapshot rename and WAL truncation never double-applies.
//
// Admission: the daemon runs the engine with
// AdmissionPolicy::kRejectInfeasible and performs counter-offer
// negotiation itself, client-driven: a rejected deadline job gets the §5.3
// tightest feasible deadline quoted in the response ("offered"), the offer
// and the DAG stay in the registry, and "counter-offer-accept" re-submits
// under the quoted deadline (with more than one shard the daemon skips the
// quote — the tightest-deadline search is per-calendar — and simply
// rejects).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/online/service.hpp"
#include "src/online/trace.hpp"
#include "src/shard/sharded_service.hpp"
#include "src/srv/proto.hpp"
#include "src/srv/wal.hpp"

namespace resched::srv {

struct ServerCoreConfig {
  /// Shards of the ShardedService (service.capacity procs EACH); 1 is the
  /// pass-through to a single engine.
  int shards = 1;
  online::ServiceConfig service;
  /// Durable-state directory (WAL, snapshot, shutdown artifacts). Empty =
  /// fully ephemeral daemon: no WAL, no recovery.
  std::string state_dir;
  WalSync wal_sync = WalSync::kBatch;
  /// Snapshot + truncate the WAL every N records (0 = never). One shard
  /// only — a daemon with more shards always replays from genesis.
  std::uint64_t snapshot_every = 0;
};

class ServerCore {
 public:
  explicit ServerCore(ServerCoreConfig config);
  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;
  ~ServerCore();

  /// Loads the snapshot (if any), replays WAL records it does not cover,
  /// and opens the log for append. Call exactly once, before apply().
  /// No-op without a state_dir.
  void recover();

  /// Applies one request and returns the response. NOT thread-safe — the
  /// transport serializes calls (the serialization order IS the canonical
  /// request order the WAL captures). For mutating verbs `wal_lsn` (when
  /// non-null) receives the appended record's LSN, 0 if nothing was logged;
  /// the response must not be released to the client before sync() covers
  /// that LSN.
  proto::Response apply(const proto::Request& request,
                        std::uint64_t* wal_lsn = nullptr);

  /// Applies a pipelined flush worth of requests in order, appending one
  /// response per request to `responses`, and returns the highest WAL LSN
  /// appended (0 = nothing logged). Byte-identical responses, WAL records,
  /// and engine state to calling apply() on each request — WAL replay
  /// re-applies one record at a time and must land on the same bytes. The
  /// batching is in the caller: one WAL flush and one send per drained
  /// flush. NOT thread-safe (same contract as apply()).
  std::uint64_t apply_batch(const std::vector<proto::Request>& requests,
                            std::vector<proto::Response>& responses);

  /// Group-commit barrier: blocks until LSN `lsn` is durable. Safe to call
  /// concurrently with apply() on other threads (no core state touched).
  void sync(std::uint64_t lsn);

  /// Writes the shutdown artifacts (trace.jsonl, calendar.tsv) into
  /// state_dir — the byte-comparison surface of the kill-and-resume test.
  /// No-op without a state_dir.
  void finalize();

  bool stopping() const { return stopping_; }
  double now() const;
  proto::ServerStats stats() const;
  std::uint64_t wal_records() const { return next_rid_ - 1; }

 private:
  struct JobRecord {
    int internal_id = -1;
    enum class State { kAccepted, kOffered, kRejected, kCancelled } state =
        State::kRejected;
    double offer = 0.0;   ///< open counter-offer (NaN when none)
    double start = 0.0;   ///< admission schedule window (NaN when none)
    double finish = 0.0;
    /// Retained while an offer is open, for counter-offer-accept.
    std::optional<dag::Dag> dag;
  };

  proto::Response apply_submit(const proto::Request& request);
  proto::Response apply_status(const proto::Request& request);
  proto::Response apply_cancel(const proto::Request& request);
  proto::Response apply_accept(const proto::Request& request);
  proto::Response apply_shutdown(const proto::Request& request);

  /// Shared admission path of submit and counter-offer-accept: stages the
  /// effective record, drives the engine, computes a counter-offer on
  /// rejection, and updates `record`.
  proto::Response admit(const proto::Request& effective, JobRecord& record);

  bool engine_live(int internal_id) const;
  /// The admission outcome of the job just submitted: that of the shard
  /// holding the router's final decision, or engine(0)'s when the
  /// one-shard pass-through routed nothing.
  const online::JobOutcome* find_outcome(int internal_id) const;

  double clamp_time(double t) const;
  void stage(const proto::Request& effective);
  void wal_hook_fired();
  void maybe_snapshot();
  void write_snapshot();
  void load_snapshot(std::istream& in);
  std::string wal_path() const;
  std::string snapshot_path() const;

  ServerCoreConfig config_;
  shard::ShardedService engine_;

  /// Trace of every engine decision/event, accumulated in memory. One
  /// shard keeps the JSONL text (snapshots embed it); more shards keep
  /// each shard's records and format their merge once, in finalize().
  /// Both containers are sized before a writer binds to them.
  std::ostringstream trace_text_;
  std::vector<std::vector<online::TraceRecord>> shard_traces_;
  std::vector<online::TraceWriter> trace_writers_;

  std::map<int, JobRecord> jobs_;  ///< client job id -> record
  int next_internal_ = 0;

  struct Tallies {
    int submitted = 0;
    int accepted = 0;
    int offered = 0;
    int rejected = 0;
    int cancelled = 0;
  } tallies_;

  WalWriter wal_;
  std::uint64_t next_rid_ = 1;
  std::uint64_t records_since_snapshot_ = 0;
  std::string staged_payload_;     ///< effective record for the WAL hook
  std::uint64_t staged_lsn_ = 0;   ///< LSN the hook produced (0 = none)
  bool replaying_ = false;         ///< recovery replay: hook stays silent
  bool recovered_ = false;
  bool stopping_ = false;
};

}  // namespace resched::srv
