#include "src/srv/server_core.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "src/core/tightest_deadline.hpp"
#include "src/ft/checkpoint.hpp"
#include "src/ft/wire.hpp"
#include "src/obs/obs.hpp"
#include "src/resv/profile.hpp"
#include "src/util/error.hpp"

namespace resched::srv {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr char kSnapshotMagic[4] = {'R', 'S', 'S', 'N'};

bool file_exists(const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  return probe.good();
}

/// fsync a written file (and, for durability of a rename, its directory).
void fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  RESCHED_CHECK(fd >= 0, "srv: open for fsync failed: " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  RESCHED_CHECK(rc == 0, "srv: fsync failed: " + path);
}

}  // namespace

ServerCore::ServerCore(ServerCoreConfig config) : config_(std::move(config)) {
  RESCHED_CHECK(config_.shards >= 1, "srv: shards must be >= 1");
  RESCHED_CHECK(config_.snapshot_every == 0 || config_.shards == 1,
                "srv: snapshots require single-engine mode");
  // The daemon owns counter-offer negotiation (client-driven, via the
  // "offered" state + counter-offer-accept); the engine itself must reject
  // infeasible deadlines outright so nothing is tentatively committed.
  config_.service.admission = online::AdmissionPolicy::kRejectInfeasible;

  const auto hook = [this](const online::SchedulerService::WalOp&) {
    wal_hook_fired();
  };
  if (config_.shards == 1) {
    single_ = std::make_unique<online::SchedulerService>(config_.service);
    trace_writers_.emplace_back(trace_text_);
    single_->set_trace(&trace_writers_[0]);
    single_->set_wal_hook(hook);
  } else {
    shard::ShardedConfig sc;
    sc.shards = config_.shards;
    sc.threads = 1;
    sc.service = config_.service;
    sc.routing = config_.routing;
    sharded_ = std::make_unique<shard::ShardedService>(sc);
    const auto n = static_cast<std::size_t>(config_.shards);
    shard_traces_.resize(n);
    trace_writers_.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
      trace_writers_.emplace_back(shard_traces_[s], static_cast<int>(s));
      sharded_->engine(static_cast<int>(s)).set_trace(&trace_writers_[s]);
    }
    sharded_->set_wal_hook(hook);
  }
}

ServerCore::~ServerCore() = default;

double ServerCore::now() const {
  return single_ ? single_->now() : sharded_->now();
}

double ServerCore::clamp_time(double t) const {
  const double n = now();
  return t > n ? t : n;
}

std::string ServerCore::wal_path() const { return config_.state_dir + "/wal"; }
std::string ServerCore::snapshot_path() const {
  return config_.state_dir + "/snapshot";
}

// --- durability ------------------------------------------------------------

void ServerCore::stage(const proto::Request& effective) {
  staged_payload_ = proto::encode(effective);
}

void ServerCore::wal_hook_fired() {
  if (staged_payload_.empty()) return;  // cancel pre-logged, or no staging
  if (replaying_ || !wal_.is_open()) {
    staged_payload_.clear();
    return;
  }
  const std::uint64_t rid = next_rid_;
  staged_lsn_ = wal_.append(rid, staged_payload_);
  next_rid_ = rid + 1;
  ++records_since_snapshot_;
  staged_payload_.clear();
}

void ServerCore::sync(std::uint64_t lsn) {
  if (lsn > 0 && wal_.is_open()) wal_.sync_to(lsn);
}

void ServerCore::recover() {
  RESCHED_CHECK(!recovered_, "srv: recover() called twice");
  recovered_ = true;
  if (config_.state_dir.empty()) return;

  if (::mkdir(config_.state_dir.c_str(), 0755) != 0 && errno != EEXIST)
    throw Error("srv: cannot create state dir '" + config_.state_dir +
                "': " + std::strerror(errno));

  if (file_exists(snapshot_path())) {
    RESCHED_CHECK(config_.shards == 1,
                  "srv: snapshot found but the server is sharded");
    std::ifstream in(snapshot_path(), std::ios::binary);
    load_snapshot(in);
  }

  const WalHeader header{1, static_cast<std::uint32_t>(config_.service.capacity),
                         static_cast<std::uint32_t>(config_.shards)};
  if (file_exists(wal_path())) {
    const WalScan scan = read_wal(wal_path());
    RESCHED_CHECK(scan.header.capacity == header.capacity &&
                      scan.header.shards == header.shards,
                  "srv: WAL written for a different server config");
    replaying_ = true;
    for (const WalRecord& record : scan.records) {
      if (record.rid < next_rid_) continue;  // the snapshot already covers it
      apply(proto::decode_request(record.payload));
      next_rid_ = record.rid + 1;
    }
    replaying_ = false;
  }
  wal_.open(wal_path(), header, config_.wal_sync);
}

void ServerCore::maybe_snapshot() {
  if (config_.snapshot_every == 0 || !wal_.is_open()) return;
  if (records_since_snapshot_ < config_.snapshot_every) return;
  write_snapshot();
}

void ServerCore::write_snapshot() {
  using namespace ft::wire;
  const std::string tmp = snapshot_path() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    RESCHED_CHECK(out.good(), "srv: cannot write snapshot: " + tmp);
    put_bytes(out, kSnapshotMagic, sizeof kSnapshotMagic);
    put_u32(out, 1);  // envelope version
    put_u32(out, static_cast<std::uint32_t>(config_.service.capacity));
    put_u32(out, static_cast<std::uint32_t>(config_.shards));
    put_u64(out, next_rid_);
    put_i32(out, next_internal_);
    put_i32(out, tallies_.submitted);
    put_i32(out, tallies_.accepted);
    put_i32(out, tallies_.offered);
    put_i32(out, tallies_.rejected);
    put_i32(out, tallies_.cancelled);
    put_u64(out, jobs_.size());
    for (const auto& [client_id, record] : jobs_) {
      put_i32(out, client_id);
      put_i32(out, record.internal_id);
      put_u8(out, static_cast<std::uint8_t>(record.state));
      put_f64(out, record.offer);
      put_f64(out, record.start);
      put_f64(out, record.finish);
      put_bool(out, record.dag.has_value());
      if (record.dag) put_dag(out, *record.dag);
    }
    // The full JSONL trace so far: the recovered daemon keeps appending to
    // it, and finalize() writes the seamless whole.
    put_string(out, trace_text_.str());
    ft::save_checkpoint(out, *single_);
    RESCHED_CHECK(out.good(), "srv: snapshot write failed");
  }
  fsync_path(tmp);
  RESCHED_CHECK(std::rename(tmp.c_str(), snapshot_path().c_str()) == 0,
                "srv: snapshot rename failed");
  fsync_path(config_.state_dir);
  // A crash before this truncation replays rid >= next_rid_ only — the
  // snapshot's rid watermark makes the overlap idempotent.
  wal_.truncate_records();
  records_since_snapshot_ = 0;
  OBS_COUNT("srv.snapshots", 1);
}

void ServerCore::load_snapshot(std::istream& in) {
  using namespace ft::wire;
  char magic[4];
  get_bytes(in, magic, sizeof magic);
  RESCHED_CHECK(std::memcmp(magic, kSnapshotMagic, sizeof magic) == 0,
                "srv: bad snapshot magic");
  RESCHED_CHECK(get_u32(in) == 1, "srv: unsupported snapshot version");
  RESCHED_CHECK(get_u32(in) ==
                    static_cast<std::uint32_t>(config_.service.capacity),
                "srv: snapshot capacity mismatch");
  RESCHED_CHECK(get_u32(in) == static_cast<std::uint32_t>(config_.shards),
                "srv: snapshot shard-count mismatch");
  next_rid_ = get_u64(in);
  next_internal_ = get_i32(in);
  tallies_.submitted = get_i32(in);
  tallies_.accepted = get_i32(in);
  tallies_.offered = get_i32(in);
  tallies_.rejected = get_i32(in);
  tallies_.cancelled = get_i32(in);
  const std::uint64_t n_jobs = get_u64(in);
  jobs_.clear();
  for (std::uint64_t i = 0; i < n_jobs; ++i) {
    const int client_id = get_i32(in);
    JobRecord record;
    record.internal_id = get_i32(in);
    record.state = static_cast<JobRecord::State>(get_u8(in));
    record.offer = get_f64(in);
    record.start = get_f64(in);
    record.finish = get_f64(in);
    if (get_bool(in)) record.dag = get_dag(in);
    jobs_.emplace(client_id, std::move(record));
  }
  trace_text_ << get_string(in);
  ft::load_checkpoint(in, *single_);
}

// --- engine dispatch -------------------------------------------------------

void ServerCore::engine_submit(online::JobSubmission job) {
  if (single_)
    single_->submit(std::move(job));
  else
    sharded_->submit(std::move(job));
}

bool ServerCore::engine_cancel(double t, int job_id) {
  return single_ ? single_->cancel_job(t, job_id)
                 : sharded_->cancel_job(t, job_id);
}

void ServerCore::engine_run_until(double t) {
  if (single_)
    single_->run_until(t);
  else
    sharded_->run_until(t);
}

bool ServerCore::engine_live(int internal_id) const {
  if (single_) return single_->live_jobs().count(internal_id) > 0;
  for (int s = 0; s < config_.shards; ++s)
    if (sharded_->engine(s).live_jobs().count(internal_id) > 0) return true;
  return false;
}

const online::JobOutcome* ServerCore::find_outcome(int internal_id) const {
  const auto scan =
      [internal_id](
          const std::vector<online::JobOutcome>& outs) -> const online::JobOutcome* {
    for (auto it = outs.rbegin(); it != outs.rend(); ++it)
      if (it->job_id == internal_id) return &*it;
    return nullptr;
  };
  if (single_) return scan(single_->outcomes());
  for (int s = 0; s < config_.shards; ++s)
    if (const online::JobOutcome* o = scan(sharded_->engine(s).outcomes()))
      return o;
  return nullptr;
}

// --- request application ---------------------------------------------------

proto::Response ServerCore::apply(const proto::Request& request,
                                  std::uint64_t* wal_lsn) {
  staged_lsn_ = 0;
  staged_payload_.clear();
  proto::Response response;
  response.offer = kNaN;
  response.start = kNaN;
  response.finish = kNaN;
  response.job_id = request.job_id;
  try {
    switch (request.verb) {
      case proto::Verb::kSubmit: response = apply_submit(request); break;
      case proto::Verb::kStatus: response = apply_status(request); break;
      case proto::Verb::kCancel: response = apply_cancel(request); break;
      case proto::Verb::kCounterOfferAccept:
        response = apply_accept(request);
        break;
      case proto::Verb::kShutdown: response = apply_shutdown(request); break;
    }
  } catch (const std::exception& e) {
    response.ok = false;
    response.error = e.what();
    response.state = "error";
    response.offer = kNaN;
    response.start = kNaN;
    response.finish = kNaN;
    response.stats.reset();
  }
  response.now = now();
  if (wal_lsn != nullptr) *wal_lsn = staged_lsn_;
  staged_payload_.clear();
  if (!replaying_) maybe_snapshot();
  return response;
}

std::uint64_t ServerCore::apply_batch(
    const std::vector<proto::Request>& requests,
    std::vector<proto::Response>& responses) {
  std::uint64_t max_lsn = 0;
  responses.reserve(responses.size() + requests.size());
  for (const proto::Request& request : requests) {
    std::uint64_t lsn = 0;
    responses.push_back(apply(request, &lsn));
    if (lsn > max_lsn) max_lsn = lsn;
  }
  return max_lsn;
}

proto::Response ServerCore::admit(const proto::Request& effective,
                                  JobRecord& record) {
  stage(effective);
  const int internal_id = next_internal_;
  // Engine validation happens inside submit(); on a throw nothing was
  // logged and the internal id is not consumed, so the id sequence stays a
  // pure function of the WAL — replay allocates identically.
  engine_submit(online::JobSubmission{internal_id, effective.time,
                                      *effective.dag, effective.deadline});
  ++next_internal_;
  engine_run_until(effective.time);
  ++tallies_.submitted;

  record.internal_id = internal_id;
  record.offer = kNaN;
  record.start = kNaN;
  record.finish = kNaN;
  record.dag.reset();

  proto::Response response;
  response.job_id = effective.job_id;
  response.offer = kNaN;
  response.start = kNaN;
  response.finish = kNaN;

  const online::JobOutcome* outcome = find_outcome(internal_id);
  // No outcome = the sharded router rejected without an engine attempt
  // (every shard over its queue cap); treat as a plain rejection.
  const online::Decision decision =
      outcome != nullptr ? outcome->decision : online::Decision::kRejected;
  RESCHED_ASSERT(decision != online::Decision::kCounterOffered,
                 "daemon engines run kRejectInfeasible");

  if (decision == online::Decision::kAccepted) {
    record.state = JobRecord::State::kAccepted;
    record.start = outcome->start;
    record.finish = outcome->finish;
    ++tallies_.accepted;
    response.state = "accepted";
    response.start = record.start;
    response.finish = record.finish;
    return response;
  }

  // Rejected. Client-driven negotiation: quote the tightest feasible
  // deadline (single-engine mode; the §5.3 search is per-calendar, so a
  // sharded daemon just rejects) and hold the offer open.
  double offer = kNaN;
  if (single_ && effective.deadline.has_value()) {
    const double t = now();
    const int q_hist = resv::historical_average_available(
        single_->profile(), t, config_.service.history_window);
    const core::TightestDeadlineResult tight = core::tightest_deadline(
        *effective.dag, single_->profile(), t, q_hist,
        config_.service.deadline, config_.service.tightest);
    if (tight.at_deadline.feasible && tight.deadline > effective.time)
      offer = tight.deadline;
  }
  if (std::isfinite(offer)) {
    record.state = JobRecord::State::kOffered;
    record.offer = offer;
    record.dag = *effective.dag;
    ++tallies_.offered;
    response.state = "offered";
    response.offer = offer;
  } else {
    record.state = JobRecord::State::kRejected;
    ++tallies_.rejected;
    response.state = "rejected";
  }
  return response;
}

proto::Response ServerCore::apply_submit(const proto::Request& request) {
  RESCHED_CHECK(request.dag.has_value(), "srv: submit carries no dag");
  RESCHED_CHECK(jobs_.find(request.job_id) == jobs_.end(),
                "srv: job id already known");
  proto::Request effective = request;
  effective.time = clamp_time(request.time);
  JobRecord record;
  proto::Response response = admit(effective, record);
  jobs_.emplace(request.job_id, std::move(record));
  return response;
}

proto::Response ServerCore::apply_accept(const proto::Request& request) {
  const auto it = jobs_.find(request.job_id);
  RESCHED_CHECK(it != jobs_.end(), "srv: unknown job");
  JobRecord& record = it->second;
  RESCHED_CHECK(record.state == JobRecord::State::kOffered &&
                    std::isfinite(record.offer) && record.dag.has_value(),
                "srv: no open counter-offer for this job");
  proto::Request effective = request;
  effective.time = clamp_time(request.time);
  // Stamp the accepted deadline into the logged record: replay takes it
  // from the WAL rather than re-deriving the negotiation.
  effective.deadline =
      request.deadline.has_value() ? request.deadline : std::optional<double>(record.offer);
  effective.dag = record.dag;  // never on the wire; admit() schedules it
  return admit(effective, record);
}

proto::Response ServerCore::apply_cancel(const proto::Request& request) {
  const auto it = jobs_.find(request.job_id);
  RESCHED_CHECK(it != jobs_.end(), "srv: unknown job");
  JobRecord& record = it->second;
  RESCHED_CHECK(record.state == JobRecord::State::kAccepted ||
                    record.state == JobRecord::State::kCancelled,
                "srv: job is not cancellable");

  proto::Response response;
  response.job_id = request.job_id;
  response.offer = kNaN;
  response.start = kNaN;
  response.finish = kNaN;
  if (record.state == JobRecord::State::kCancelled) {
    response.ok = false;
    response.error = "job already cancelled";
    response.state = "cancelled";
    return response;
  }

  proto::Request effective = request;
  effective.time = clamp_time(request.time);
  // Cancels are logged unconditionally, even when they miss: a miss still
  // advances the stream clock (the engine drains events up to t before
  // looking for the job), and that advancement must replay.
  stage(effective);
  wal_hook_fired();
  const bool was_live = engine_cancel(effective.time, record.internal_id);
  if (!was_live) {
    response.ok = false;
    response.error = "job already finished";
    response.state = "done";
    response.start = record.start;
    response.finish = record.finish;
    return response;
  }
  record.state = JobRecord::State::kCancelled;
  ++tallies_.cancelled;
  response.state = "cancelled";
  response.start = record.start;
  return response;
}

proto::Response ServerCore::apply_status(const proto::Request& request) {
  proto::Response response;
  response.job_id = request.job_id;
  response.offer = kNaN;
  response.start = kNaN;
  response.finish = kNaN;
  if (request.job_id < 0) {
    response.state = "ok";
    response.stats = stats();
    return response;
  }
  const auto it = jobs_.find(request.job_id);
  if (it == jobs_.end()) {
    response.state = "unknown";
    return response;
  }
  const JobRecord& record = it->second;
  switch (record.state) {
    case JobRecord::State::kAccepted:
      response.state = engine_live(record.internal_id) ? "accepted" : "done";
      response.start = record.start;
      response.finish = record.finish;
      break;
    case JobRecord::State::kOffered:
      response.state = "offered";
      response.offer = record.offer;
      break;
    case JobRecord::State::kRejected:
      response.state = "rejected";
      break;
    case JobRecord::State::kCancelled:
      response.state = "cancelled";
      response.start = record.start;
      break;
  }
  return response;
}

proto::Response ServerCore::apply_shutdown(const proto::Request& request) {
  stopping_ = true;
  proto::Response response;
  response.job_id = request.job_id;
  response.offer = kNaN;
  response.start = kNaN;
  response.finish = kNaN;
  response.state = "ok";
  response.stats = stats();
  return response;
}

proto::ServerStats ServerCore::stats() const {
  proto::ServerStats s;
  s.now = now();
  s.events = single_ ? single_->events_processed() : sharded_->events_processed();
  s.submitted = tallies_.submitted;
  s.accepted = tallies_.accepted;
  s.offered = tallies_.offered;
  s.rejected = tallies_.rejected;
  s.cancelled = tallies_.cancelled;
  s.wal_records = wal_records();
  s.shards = config_.shards;
  return s;
}

// --- shutdown artifacts ----------------------------------------------------

void ServerCore::finalize() {
  if (config_.state_dir.empty()) return;

  {
    std::ofstream out(config_.state_dir + "/trace.jsonl",
                      std::ios::binary | std::ios::trunc);
    RESCHED_CHECK(out.good(), "srv: cannot write trace.jsonl");
    if (single_) {
      out << trace_text_.str();
    } else {
      for (const online::TraceRecord& record :
           online::merge_traces(shard_traces_))
        out << online::to_json_line(record) << '\n';
    }
    RESCHED_CHECK(out.good(), "srv: trace.jsonl write failed");
  }

  {
    std::ofstream out(config_.state_dir + "/calendar.tsv",
                      std::ios::binary | std::ios::trunc);
    RESCHED_CHECK(out.good(), "srv: cannot write calendar.tsv");
    const auto dump = [&out](int shard_id,
                             const resv::AvailabilityProfile& profile) {
      for (const auto& [t, procs] : profile.canonical_steps())
        out << shard_id << '\t' << online::format_double(t) << '\t' << procs
            << '\n';
    };
    if (single_) {
      dump(0, single_->profile());
    } else {
      for (int s = 0; s < config_.shards; ++s) dump(s, sharded_->calendar(s));
    }
    RESCHED_CHECK(out.good(), "srv: calendar.tsv write failed");
  }
}

}  // namespace resched::srv
