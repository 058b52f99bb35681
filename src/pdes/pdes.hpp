// Conservative time-windowed parallel discrete-event replay (DESIGN.md §12).
//
// Archive replays through a single engine walk one event at a time; a
// multi-month SWF archive (millions of jobs) takes hours. This subsystem
// parallelizes the event loop across the src/shard/ engines with a
// conservative (rollback-free) PDES protocol:
//
//   * The platform is partitioned into N shards, each a private calendar +
//     online::SchedulerService (the same Shard storage, worker pool, and
//     per-shard tracing the sharded service uses).
//   * Time advances in lockstep epochs. Each epoch derives a lower bound
//     on the next state change — min(next arrival's submit time, earliest
//     pending event across all shards) — opens a lookahead window from
//     there, serially ingests every arrival inside the window (routing
//     each to a shard against the barrier-frozen calendars), serially
//     schedules the window's chaos disruptions, then advances ALL shards
//     to the window end in parallel behind one pool barrier.
//   * Safety: shards share no mutable state; they couple only through the
//     serial routing decisions taken at barriers. Whatever happens inside
//     a window on shard A cannot influence shard B within the same window
//     — so ANY positive window size is causally safe, and no rollback
//     machinery is needed. The window size trades barrier frequency
//     (throughput) against routing staleness (placement quality), never
//     correctness.
//   * Determinism: routing reads only barrier-synchronized state (frozen
//     queue depths + calendars), chaos streams are seeded per shard
//     (ft::shard_injector_config) and generated serially between barriers,
//     and each engine is single-threaded within its shard. Per-shard
//     traces are captured in memory as shard-tagged records (no JSONL
//     round trip) and merged under the (time, shard, seq) total order —
//     the merged trace and all final metrics are byte-identical at every
//     worker count, including 1.
//   * Blind routing hook: deadline jobs optionally probe candidate shards
//     through the metered resv::BatchScheduler facade (the paper's §3.2.2
//     opaque batch-scheduler model): one earliest-fit probe per task
//     lower-bounds the job's finish on that shard, and shards whose floor
//     already exceeds the deadline are skipped without touching their
//     engines. The probe count is the metered resource (PdesStats).
//
// The differential oracle is serial_replay(): an independent
// single-threaded implementation of the identical windowed protocol —
// plain per-shard engines advanced in a simple loop, no ShardedService,
// no pool — kept deliberately separate from PdesReplayEngine so a bug in
// either implementation shows up as a trace divergence in the seeded
// differential suite (tests/pdes_test.cpp). Note the oracle is *not* the
// upfront-enqueue replay driver: windowed ingestion assigns event
// sequence numbers in ingestion order, so the protocol itself (not just
// its parallel execution) is what the oracle pins.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/ft/injector.hpp"
#include "src/ft/repair.hpp"
#include "src/online/service.hpp"
#include "src/online/trace.hpp"
#include "src/pdes/source.hpp"
#include "src/resv/fit_query.hpp"
#include "src/shard/sharded_service.hpp"

namespace resched::pdes {

/// Archive-scale chaos overlay: one base campaign config, re-seeded per
/// shard so the N disruption streams are independent but jointly
/// deterministic.
struct PdesChaos {
  ft::FaultInjectorConfig injector;
  ft::RepairPolicy repair;
};

/// One shard's chaos campaign sliced exactly at window barriers.
///
/// ft::FaultInjector::generate restarts its seeded RNG on every call, so
/// naive per-window slices generate(a, b) + generate(b, c) do NOT
/// concatenate to the generate(a, c) campaign — every window would replay
/// the same first inter-arrival draw, and a draw longer than the window
/// silences the stream forever. Instead the stream regenerates from the
/// campaign start out to a doubling horizon — generate(start, T2) extends
/// generate(start, T1) by a strict suffix for T2 > T1 (the output is
/// (time, type)-sorted and per-type arrivals are monotone), ids included —
/// and each window consumes the next unconsumed slice. The replay's chaos
/// is therefore the window-size-independent campaign, delivered in
/// window-sized bites.
class ChaosStream {
 public:
  explicit ChaosStream(const ft::FaultInjectorConfig& config)
      : injector_(config) {}

  /// Schedules every not-yet-delivered disruption striking before `wend`
  /// into `repair` and returns how many. The campaign starts at the first
  /// call's `from`; later calls ignore it.
  std::uint64_t schedule_until(ft::RepairEngine& repair, double from,
                               double wend);

 private:
  ft::FaultInjector injector_;
  bool started_ = false;
  double start_ = 0.0;
  double gen_to_ = 0.0;
  std::vector<ft::Disruption> buffer_;
  std::size_t consumed_ = 0;
};

struct PdesConfig {
  int shards = 1;
  /// Worker threads for the window barrier (clamped to [1, shards]).
  /// Never affects results — only wall-clock.
  int threads = 1;
  /// Lookahead window [seconds]. Any positive value is causally safe;
  /// larger windows amortize barriers over more events but route against
  /// staler calendars.
  double window = 3600.0;
  /// Per-shard engine configuration; capacity is EACH shard's capacity.
  online::ServiceConfig service;
  /// Routing score of shard s for an arrival at window start t:
  ///   queue_depth_weight * queue_size(s)
  ///     + committed_work_weight * (reserved_area_after(s, t)
  ///                                + work routed to s this window)
  /// (lower wins, ties by shard id) — shard::RoutingPolicy's formula read
  /// at the barrier, plus a serial-work accumulator over the window's own
  /// arrivals so a burst spreads instead of piling onto the shard that
  /// looked emptiest when the calendars froze (which would serialize the
  /// barrier advance behind one engine).
  double queue_depth_weight = 1.0;
  double committed_work_weight = 1.0 / 3600.0;
  /// Blind feasibility probe for deadline jobs (metered BatchScheduler
  /// facade): skip candidate shards whose finish floor provably exceeds
  /// the deadline. The best-ranked shard still takes the job when every
  /// candidate is skipped — rejections must come from an engine.
  bool blind_floor_probe = true;
  std::optional<PdesChaos> chaos;
  /// Capture per-shard traces and return the (time, shard, seq) merge.
  bool capture_trace = true;
};

/// Replay accounting. Every field except barrier_stall_ns is fully
/// deterministic (thread-count independent); barrier_stall_ns is measured
/// wall-clock (0 in serial_replay and in RESCHED_OBS_DISABLED builds).
struct PdesStats {
  std::uint64_t windows = 0;
  std::uint64_t fast_forwards = 0;  ///< windows opened past an idle gap
  std::uint64_t arrivals = 0;       ///< jobs ingested
  std::uint64_t disruptions = 0;    ///< chaos disruptions scheduled
  std::uint64_t blind_probes = 0;   ///< batch-scheduler probes spent routing
  std::uint64_t floor_skips = 0;    ///< candidate shards skipped by floor
  std::uint64_t events = 0;         ///< engine events processed, all shards
  std::int64_t barrier_stall_ns = 0;  ///< sum over windows of max−min advance
  double horizon = 0.0;             ///< final barrier time
};

struct PdesResult {
  PdesStats stats;
  /// Deterministic (time, shard, seq)-merged trace; empty when
  /// capture_trace is off.
  std::vector<online::TraceRecord> trace;
  /// Admission tallies summed over the per-shard engines.
  shard::ShardedService::Aggregates aggregates;
  /// Per-shard repair accounting; empty without chaos.
  std::vector<ft::FtCounters> chaos;
};

/// The parallel driver. One-shot: construct, run(source), read result /
/// service(). Worker threads only ever execute engine advances between
/// barriers; all decisions happen on the caller's thread.
class PdesReplayEngine {
 public:
  explicit PdesReplayEngine(PdesConfig config);
  PdesReplayEngine(const PdesReplayEngine&) = delete;
  PdesReplayEngine& operator=(const PdesReplayEngine&) = delete;
  ~PdesReplayEngine();

  PdesResult run(SubmissionSource& source);

  /// The underlying sharded service (per-shard engines, summary_table).
  /// Valid only after run().
  const shard::ShardedService& service() const;

 private:
  PdesConfig config_;
  std::unique_ptr<shard::ShardedService> service_;
  std::vector<std::unique_ptr<ft::RepairEngine>> repairs_;
  std::vector<ChaosStream> chaos_streams_;
  std::vector<resv::FitQuery> floor_queries_;
};

/// Single-threaded differential oracle: the identical windowed protocol
/// over plain per-shard engines, no pool, no ShardedService. Byte-equal
/// traces / aggregates / deterministic stats to PdesReplayEngine::run at
/// every (shards, threads) combination, or one of the two has a bug.
PdesResult serial_replay(const PdesConfig& config, SubmissionSource& source);

}  // namespace resched::pdes
