// reschedd wire protocol: length-prefixed, CRC-framed JSON messages
// (DESIGN.md §10).
//
// A connection carries a sequence of frames in each direction; every frame
// is
//
//   [u32 payload length][u32 CRC-32 of payload][payload bytes]
//
// with both integers little-endian and the payload one JSON object in a
// fixed key order (the JSONL discipline of src/online/trace.*: doubles are
// rendered with format_double, so encode -> decode -> encode is
// byte-identical — the round-trip property tests/srv_proto_test.cpp pins).
// Frames whose length field exceeds kMaxPayload are rejected before any
// allocation; frames whose CRC does not match are rejected without looking
// at the payload. Requests:
//
//   {"verb":"submit","job":3,"t":100,"deadline":500,"dag":
//     {"costs":[[3600,0.25],...],"edges":[[0,1],...]}}
//   {"verb":"status","job":3,"t":0}            job -1 = whole-server stats
//   {"verb":"cancel","job":3,"t":120}
//   {"verb":"counter-offer-accept","job":3,"t":130,"deadline":null}
//   {"verb":"shutdown","job":-1,"t":0}
//
// "t" is the client's requested apply time; the daemon clamps it to its
// stream clock and stamps the *effective* time back into the record it
// writes to the WAL, so a WAL replay applies exactly what the live run
// applied. On "counter-offer-accept" the daemon likewise stamps the offered
// deadline it is accepting into the logged record ("deadline" is null on
// the client's wire request).
//
// Responses carry an ok/error envelope, the job's admission verdict and
// window, and — for whole-server status — a stats block.
#pragma once

#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <string_view>

#include "src/dag/dag.hpp"

namespace resched::srv::proto {

/// Hard cap on one frame's payload (1 MiB) — a length prefix beyond this is
/// rejected before any buffering.
inline constexpr std::uint32_t kMaxPayload = 1u << 20;
/// Bytes of framing ahead of the payload (length + CRC).
inline constexpr std::size_t kFrameHeader = 8;

enum class Verb {
  kSubmit,
  kStatus,
  kCancel,
  kCounterOfferAccept,
  kShutdown,
};

const char* to_string(Verb verb);
/// Throws resched::Error on an unknown verb string.
Verb verb_from_string(std::string_view s);

struct Request {
  Verb verb = Verb::kStatus;
  int job_id = -1;
  /// Requested apply time (submit time for kSubmit); the server clamps to
  /// its clock and logs the clamped value.
  double time = 0.0;
  /// kSubmit: requested absolute deadline (nullopt = best-effort).
  /// kCounterOfferAccept: the accepted deadline, stamped by the server when
  /// logging (null on the wire from clients).
  std::optional<double> deadline;
  /// kSubmit only.
  std::optional<dag::Dag> dag;
};

/// Whole-server roll-up returned by status with job -1.
struct ServerStats {
  double now = 0.0;
  std::uint64_t events = 0;  ///< engine events processed, all shards
  int submitted = 0;
  int accepted = 0;
  int offered = 0;  ///< rejected with a counter-offer still open
  int rejected = 0;
  int cancelled = 0;
  std::uint64_t wal_records = 0;
  int shards = 1;
};

struct Response {
  bool ok = true;
  std::string error;  ///< empty when ok
  int job_id = -1;
  /// Lifecycle verdict: "accepted", "done", "offered", "rejected",
  /// "cancelled", "unknown"; "ok" for server-level acks (status/shutdown).
  std::string state;
  /// Offered deadline while an offer is open (NaN <-> null otherwise).
  double offer = 0.0;
  double start = 0.0;   ///< first task start (NaN when not scheduled)
  double finish = 0.0;  ///< last task finish (NaN when not scheduled)
  double now = 0.0;     ///< server stream clock after applying the request
  std::optional<ServerStats> stats;
};

/// The answer to a request that failed: ok false, state "error", the
/// failure's text (a resched::Error's message() alone, never its source
/// path) and null offer, start, finish and now. ServerCore::apply stamps the server clock into `now`; a
/// frame that does not decode reached no engine and keeps it null.
Response error_response(const std::exception& failure, int job_id = -1);

// --- JSON payload codec ---------------------------------------------------

std::string encode(const Request& request);
std::string encode(const Response& response);
/// Throw resched::Error on any schema violation; never crash on arbitrary
/// bytes (the fuzz loop in tests/srv_proto_test.cpp feeds them).
Request decode_request(std::string_view payload);
Response decode_response(std::string_view payload);

// --- Framing ---------------------------------------------------------------

/// Wraps a payload in the length + CRC frame. Throws when oversized.
std::string frame(std::string_view payload);

enum class FrameStatus {
  kOk,        ///< one frame consumed, payload extracted
  kNeedMore,  ///< buffer holds only a frame prefix — read more bytes
  kOversized, ///< length prefix exceeds kMaxPayload — close the connection
  kCorrupt,   ///< CRC mismatch — close the connection
};

/// Attempts to take one frame off the front of `buf`. On kOk sets
/// `consumed` to the frame's total size and fills `payload`; on any other
/// status `consumed` is 0 and `payload` is untouched.
FrameStatus try_parse_frame(std::string_view buf, std::size_t& consumed,
                            std::string& payload);

}  // namespace resched::srv::proto
