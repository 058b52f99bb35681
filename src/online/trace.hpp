// JSONL event-trace writer / reader for the online engine.
//
// Every processed engine event (and every admission decision) is emitted as
// one JSON object per line, with a fixed key order so that traces are
// byte-stable across runs and platforms:
//
//   {"seq":12,"t":3600,"type":"submit","job":4,"task":-1,"procs":0,"value":0}
//
// Keys: seq (event sequence number; admission decisions reuse the sequence
// number of the submission that triggered them), t (engine time, seconds),
// type (event or decision name), job / task / procs (ids, -1 / 0 when not
// applicable), value (type-dependent: schedule finish time for accept,
// offered deadline for counter_offer, requested deadline for reject).
//
// Sharded mode (DESIGN.md §9): engine sequence numbers are per-engine, so a
// multi-shard run namespaces its records with a leading shard id —
//
//   {"shard":2,"seq":12,"t":3600,"type":"submit",...}
//
// — making (shard, seq) a unique event id across the whole service. The tag
// is emitted only for records carrying a shard id (shard >= 0); untagged
// records render exactly as before, so single-engine traces (and their
// golden files) are byte-for-byte unchanged.
//
// Doubles are formatted as %.17g (std::to_chars with general format and
// precision 17, which is specified as exactly that printf conversion), and
// strtod parses them back to the exact same bits, so write -> read -> write
// round-trips byte-identically — the property the golden-file test in
// tests/online_trace_test.cpp enforces.
//
// JSONL is an edge format: `replay --trace` and reschedd's shutdown
// trace.jsonl write it, and `trace_tool merge_traces` reads trace files
// back from disk. In-process consumers (the PDES replay, the sharded
// daemon, tests) capture TraceRecords directly through a record-sink
// TraceWriter and never format or parse text.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace resched::online {

/// One trace line. `type` holds an event name (to_string(EventType)) or a
/// decision name (to_string(Decision)). `shard` is the owning shard in a
/// sharded run; -1 (the default) means untagged — the single-engine schema.
struct TraceRecord {
  std::uint64_t seq = 0;
  double time = 0.0;
  std::string type;
  int job = -1;
  int task = -1;
  int procs = 0;
  double value = 0.0;
  int shard = -1;

  bool operator==(const TraceRecord&) const = default;
};

/// Formats a double such that strtod(result) reproduces the value exactly.
std::string format_double(double v);

/// Writes records either as JSONL lines to a stream or as records appended
/// to a vector; the stream or vector is borrowed, not owned. A writer
/// constructed with a shard id stamps it into every untagged record it
/// writes — the per-shard writers of a sharded service tag mechanically
/// while single-engine callers stay schema-compatible. A record sink holds
/// exactly what parsing the streamed lines back would produce, without
/// formatting any text (type names are checked for JSON safety only when a
/// record is rendered).
class TraceWriter {
 public:
  explicit TraceWriter(std::ostream& out, int shard = -1)
      : out_(&out), shard_(shard) {}
  explicit TraceWriter(std::vector<TraceRecord>& sink, int shard = -1)
      : sink_(&sink), shard_(shard) {}
  void write(const TraceRecord& record);

 private:
  std::ostream* out_ = nullptr;
  std::vector<TraceRecord>* sink_ = nullptr;
  int shard_ = -1;
  std::string line_;  ///< stream mode: render buffer reused across writes
};

/// Serializes one record to its JSONL line (no trailing newline).
std::string to_json_line(const TraceRecord& record);

/// Parses one JSONL line; throws resched::Error on schema violations,
/// including an integer field (shard, seq, job, task, procs) that is
/// fractional, non-numeric or out of its type's range.
TraceRecord parse_trace_line(const std::string& line);

/// Reads a whole trace (empty lines are skipped).
std::vector<TraceRecord> read_trace(std::istream& in);

/// Merges per-shard traces into one stream under the deterministic total
/// order (time, shard, seq) — the order every multi-shard replay converges
/// to regardless of thread count, so merged traces diff cleanly. Each input
/// is one shard's trace, already time-ordered (engine traces are); records
/// still untagged inherit their input's index as shard id. The merge is
/// stable: a decision record reuses its submission's (time, seq), and the
/// pair keeps the shard's emission order (submit before decision) — which
/// is why an input must hold a whole shard, never a slice of one.
std::vector<TraceRecord> merge_traces(std::vector<std::vector<TraceRecord>> shards);

}  // namespace resched::online
