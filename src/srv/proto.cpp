#include "src/srv/proto.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "src/online/trace.hpp"
#include "src/srv/crc32.hpp"
#include "src/util/error.hpp"

namespace resched::srv::proto {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

[[noreturn]] void fail(const std::string& what) {
  throw Error("proto: " + what);
}

// --- minimal JSON value + recursive-descent parser -------------------------
//
// Just enough JSON for this protocol: objects, arrays, strings, numbers,
// booleans, null. Depth-capped and allocation-bounded (payloads are capped
// at kMaxPayload before they reach the parser), and every malformed input
// lands in resched::Error — the fuzz loop in tests/srv_proto_test.cpp
// feeds arbitrary bytes through here.

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  const Json* find(std::string_view key) const {
    for (const auto& [k, v] : fields)
      if (k == key) return &v;
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(std::string_view text) : p_(text.data()), end_(text.data() + text.size()) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (p_ != end_) fail("trailing bytes after JSON value");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) ++p_;
  }

  char peek() {
    if (p_ == end_) fail("unexpected end of input");
    return *p_;
  }

  void expect(char c) {
    if (p_ == end_ || *p_ != c) fail(std::string("expected '") + c + "'");
    ++p_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (static_cast<std::size_t>(end_ - p_) < n || std::memcmp(p_, lit, n) != 0) return false;
    p_ += n;
    return true;
  }

  Json value() {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    skip_ws();
    Json v;
    switch (peek()) {
      case '{': v = object(); break;
      case '[': v = array(); break;
      case '"':
        v.type = Json::Type::kString;
        v.str = string();
        break;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        v.type = Json::Type::kBool;
        v.boolean = true;
        break;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        v.type = Json::Type::kBool;
        v.boolean = false;
        break;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        v.type = Json::Type::kNull;
        break;
      default:
        v.type = Json::Type::kNumber;
        v.number = number();
        break;
    }
    --depth_;
    return v;
  }

  Json object() {
    expect('{');
    Json v;
    v.type = Json::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++p_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      if (v.find(key) != nullptr) fail("duplicate key '" + key + "'");
      skip_ws();
      expect(':');
      v.fields.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++p_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json array() {
    expect('[');
    Json v;
    v.type = Json::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++p_;
      return v;
    }
    while (true) {
      v.items.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++p_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (p_ == end_) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(*p_++);
      if (c == '"') return out;
      if (c < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        continue;
      }
      if (p_ == end_) fail("unterminated escape");
      const char esc = *p_++;
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_utf8(out, hex4()); break;
        default: fail("bad escape");
      }
    }
  }

  unsigned hex4() {
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      if (p_ == end_) fail("truncated \\u escape");
      const char c = *p_++;
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') cp |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') cp |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad \\u escape");
    }
    return cp;
  }

  // BMP codepoint -> UTF-8 (surrogate halves are encoded as-is: the decoder
  // must not crash on them, and the encoder never emits them).
  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  double number() {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool digits = false;
    while (p_ != end_ && ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' ||
                          *p_ == 'e' || *p_ == 'E' || *p_ == '-' ||
                          *p_ == '+')) {
      digits = digits || (*p_ >= '0' && *p_ <= '9');
      ++p_;
    }
    if (!digits) fail("bad number");
    std::string token(start, p_);
    char* parse_end = nullptr;
    const double v = std::strtod(token.c_str(), &parse_end);
    if (parse_end != token.c_str() + token.size()) fail("bad number");
    return v;
  }

  const char* p_;
  const char* end_;
  int depth_ = 0;
};

// --- typed field extraction ------------------------------------------------

const Json& get(const Json& obj, std::string_view key) {
  const Json* v = obj.find(key);
  if (v == nullptr) fail("missing key '" + std::string(key) + "'");
  return *v;
}

int as_int(const Json& v, std::string_view what) {
  if (v.type != Json::Type::kNumber) fail(std::string(what) + " must be an integer");
  const double d = v.number;
  if (!(std::floor(d) == d) || d < -2147483648.0 || d > 2147483647.0)
    fail(std::string(what) + " out of integer range");
  return static_cast<int>(d);
}

std::uint64_t as_u64(const Json& v, std::string_view what) {
  if (v.type != Json::Type::kNumber) fail(std::string(what) + " must be an integer");
  const double d = v.number;
  if (!(std::floor(d) == d) || d < 0.0 || d > 9007199254740992.0)
    fail(std::string(what) + " out of range");
  return static_cast<std::uint64_t>(d);
}

// Finite number, or null -> NaN (the wire form of "not set").
double as_double_or_null(const Json& v, std::string_view what) {
  if (v.type == Json::Type::kNull) return kNaN;
  if (v.type != Json::Type::kNumber) fail(std::string(what) + " must be a number or null");
  return v.number;
}

double as_double(const Json& v, std::string_view what) {
  if (v.type != Json::Type::kNumber) fail(std::string(what) + " must be a number");
  return v.number;
}

bool as_bool(const Json& v, std::string_view what) {
  if (v.type != Json::Type::kBool) fail(std::string(what) + " must be a boolean");
  return v.boolean;
}

const std::string& as_string(const Json& v, std::string_view what) {
  if (v.type != Json::Type::kString) fail(std::string(what) + " must be a string");
  return v.str;
}

void check_keys(const Json& obj, std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : obj.fields) {
    bool ok = false;
    for (std::string_view a : allowed) ok = ok || key == a;
    if (!ok) fail("unexpected key '" + key + "'");
  }
}

// --- encoding helpers ------------------------------------------------------

void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  out.push_back('"');
}

// Finite doubles render with format_double (exact strtod round-trip);
// NaN / infinities render as null, the wire form of "not set".
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
  } else {
    out += online::format_double(v);
  }
}

void append_dag(std::string& out, const dag::Dag& dag) {
  out += "{\"costs\":[";
  for (int i = 0; i < dag.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.push_back('[');
    append_number(out, dag.cost(i).seq_time);
    out.push_back(',');
    append_number(out, dag.cost(i).alpha);
    out.push_back(']');
  }
  out += "],\"edges\":[";
  bool first = true;
  for (int u = 0; u < dag.size(); ++u) {
    for (int v : dag.successors(u)) {
      if (!first) out.push_back(',');
      first = false;
      out.push_back('[');
      out += std::to_string(u);
      out.push_back(',');
      out += std::to_string(v);
      out.push_back(']');
    }
  }
  out += "]}";
}

dag::Dag decode_dag(const Json& v) {
  if (v.type != Json::Type::kObject) fail("dag must be an object");
  check_keys(v, {"costs", "edges"});
  const Json& costs_json = get(v, "costs");
  const Json& edges_json = get(v, "edges");
  if (costs_json.type != Json::Type::kArray) fail("dag.costs must be an array");
  if (edges_json.type != Json::Type::kArray) fail("dag.edges must be an array");
  if (costs_json.items.empty()) fail("dag.costs must name at least one task");
  std::vector<dag::TaskCost> costs;
  costs.reserve(costs_json.items.size());
  for (const Json& pair : costs_json.items) {
    if (pair.type != Json::Type::kArray || pair.items.size() != 2)
      fail("dag.costs entries must be [seq_time, alpha] pairs");
    costs.push_back({as_double(pair.items[0], "dag seq_time"),
                     as_double(pair.items[1], "dag alpha")});
    if (!(costs.back().seq_time > 0.0) || !std::isfinite(costs.back().seq_time))
      fail("dag seq_time must be a positive finite number");
    if (!(costs.back().alpha >= 0.0 && costs.back().alpha <= 1.0))
      fail("dag alpha must lie in [0, 1]");
  }
  std::vector<std::pair<int, int>> edges;
  edges.reserve(edges_json.items.size());
  for (const Json& pair : edges_json.items) {
    if (pair.type != Json::Type::kArray || pair.items.size() != 2)
      fail("dag.edges entries must be [from, to] pairs");
    edges.emplace_back(as_int(pair.items[0], "dag edge endpoint"),
                       as_int(pair.items[1], "dag edge endpoint"));
  }
  // The Dag constructor revalidates structure (range, cycles, duplicates)
  // and throws resched::Error itself on violations.
  return dag::Dag(std::move(costs), edges);
}

}  // namespace

const char* to_string(Verb verb) {
  switch (verb) {
    case Verb::kSubmit: return "submit";
    case Verb::kStatus: return "status";
    case Verb::kCancel: return "cancel";
    case Verb::kCounterOfferAccept: return "counter-offer-accept";
    case Verb::kShutdown: return "shutdown";
  }
  return "?";
}

Verb verb_from_string(std::string_view s) {
  if (s == "submit") return Verb::kSubmit;
  if (s == "status") return Verb::kStatus;
  if (s == "cancel") return Verb::kCancel;
  if (s == "counter-offer-accept") return Verb::kCounterOfferAccept;
  if (s == "shutdown") return Verb::kShutdown;
  fail("unknown verb '" + std::string(s) + "'");
}

std::string encode(const Request& request) {
  std::string out = "{\"verb\":\"";
  out += to_string(request.verb);
  out += "\",\"job\":";
  out += std::to_string(request.job_id);
  out += ",\"t\":";
  append_number(out, request.time);
  // "deadline" is carried exactly when the verb can use one (null when
  // unset), so key presence is a function of the verb alone and decode ->
  // encode reproduces the input bytes.
  if (request.verb == Verb::kSubmit || request.verb == Verb::kCounterOfferAccept) {
    out += ",\"deadline\":";
    append_number(out, request.deadline ? *request.deadline : kNaN);
  }
  if (request.verb == Verb::kSubmit) {
    RESCHED_CHECK(request.dag.has_value(), "proto: submit request needs a dag");
    out += ",\"dag\":";
    append_dag(out, *request.dag);
  }
  out.push_back('}');
  return out;
}

Request decode_request(std::string_view payload) {
  const Json root = Parser(payload).parse();
  if (root.type != Json::Type::kObject) fail("request must be a JSON object");
  Request request;
  request.verb = verb_from_string(as_string(get(root, "verb"), "verb"));
  request.job_id = as_int(get(root, "job"), "job");
  request.time = as_double(get(root, "t"), "t");
  if (!std::isfinite(request.time)) fail("t must be finite");
  switch (request.verb) {
    case Verb::kSubmit: {
      check_keys(root, {"verb", "job", "t", "deadline", "dag"});
      const double d = as_double_or_null(get(root, "deadline"), "deadline");
      if (!std::isnan(d)) {
        if (!std::isfinite(d)) fail("deadline must be finite or null");
        request.deadline = d;
      }
      request.dag = decode_dag(get(root, "dag"));
      break;
    }
    case Verb::kCounterOfferAccept: {
      check_keys(root, {"verb", "job", "t", "deadline"});
      const double d = as_double_or_null(get(root, "deadline"), "deadline");
      if (!std::isnan(d)) {
        if (!std::isfinite(d)) fail("deadline must be finite or null");
        request.deadline = d;
      }
      break;
    }
    case Verb::kStatus:
    case Verb::kCancel:
    case Verb::kShutdown:
      check_keys(root, {"verb", "job", "t"});
      break;
  }
  return request;
}

Response error_response(const std::exception& failure, int job_id) {
  Response response;
  response.ok = false;
  const auto* error = dynamic_cast<const Error*>(&failure);
  response.error = error != nullptr ? error->message() : failure.what();
  response.job_id = job_id;
  response.state = "error";
  response.offer = kNaN;
  response.start = kNaN;
  response.finish = kNaN;
  response.now = kNaN;
  return response;
}

std::string encode(const Response& response) {
  std::string out = "{\"ok\":";
  out += response.ok ? "true" : "false";
  out += ",\"error\":";
  append_escaped(out, response.error);
  out += ",\"job\":";
  out += std::to_string(response.job_id);
  out += ",\"state\":";
  append_escaped(out, response.state);
  out += ",\"offer\":";
  append_number(out, response.offer);
  out += ",\"start\":";
  append_number(out, response.start);
  out += ",\"finish\":";
  append_number(out, response.finish);
  out += ",\"now\":";
  append_number(out, response.now);
  if (response.stats) {
    const ServerStats& s = *response.stats;
    out += ",\"stats\":{\"now\":";
    append_number(out, s.now);
    out += ",\"events\":";
    out += std::to_string(s.events);
    out += ",\"submitted\":";
    out += std::to_string(s.submitted);
    out += ",\"accepted\":";
    out += std::to_string(s.accepted);
    out += ",\"offered\":";
    out += std::to_string(s.offered);
    out += ",\"rejected\":";
    out += std::to_string(s.rejected);
    out += ",\"cancelled\":";
    out += std::to_string(s.cancelled);
    out += ",\"wal_records\":";
    out += std::to_string(s.wal_records);
    out += ",\"shards\":";
    out += std::to_string(s.shards);
    out += "}";
  }
  out.push_back('}');
  return out;
}

Response decode_response(std::string_view payload) {
  const Json root = Parser(payload).parse();
  if (root.type != Json::Type::kObject) fail("response must be a JSON object");
  check_keys(root, {"ok", "error", "job", "state", "offer", "start", "finish",
                    "now", "stats"});
  Response response;
  response.ok = as_bool(get(root, "ok"), "ok");
  response.error = as_string(get(root, "error"), "error");
  response.job_id = as_int(get(root, "job"), "job");
  response.state = as_string(get(root, "state"), "state");
  response.offer = as_double_or_null(get(root, "offer"), "offer");
  response.start = as_double_or_null(get(root, "start"), "start");
  response.finish = as_double_or_null(get(root, "finish"), "finish");
  // A daemon that has not processed any event yet reports now = -inf,
  // which rides the wire as null (non-finite doubles have no JSON form).
  response.now = as_double_or_null(get(root, "now"), "now");
  if (const Json* stats = root.find("stats")) {
    if (stats->type != Json::Type::kObject) fail("stats must be an object");
    check_keys(*stats, {"now", "events", "submitted", "accepted", "offered",
                        "rejected", "cancelled", "wal_records", "shards"});
    ServerStats s;
    s.now = as_double_or_null(get(*stats, "now"), "stats.now");
    s.events = as_u64(get(*stats, "events"), "stats.events");
    s.submitted = as_int(get(*stats, "submitted"), "stats.submitted");
    s.accepted = as_int(get(*stats, "accepted"), "stats.accepted");
    s.offered = as_int(get(*stats, "offered"), "stats.offered");
    s.rejected = as_int(get(*stats, "rejected"), "stats.rejected");
    s.cancelled = as_int(get(*stats, "cancelled"), "stats.cancelled");
    s.wal_records = as_u64(get(*stats, "wal_records"), "stats.wal_records");
    s.shards = as_int(get(*stats, "shards"), "stats.shards");
    response.stats = s;
  }
  return response;
}

// --- framing ---------------------------------------------------------------

namespace {
void append_le32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

std::uint32_t read_le32(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}
}  // namespace

std::string frame(std::string_view payload) {
  RESCHED_CHECK(payload.size() <= kMaxPayload, "proto: frame payload oversized");
  std::string out;
  out.reserve(kFrameHeader + payload.size());
  append_le32(out, static_cast<std::uint32_t>(payload.size()));
  append_le32(out, crc32(payload));
  out.append(payload);
  return out;
}

FrameStatus try_parse_frame(std::string_view buf, std::size_t& consumed,
                            std::string& payload) {
  consumed = 0;
  if (buf.size() < kFrameHeader) return FrameStatus::kNeedMore;
  const std::uint32_t len = read_le32(buf.data());
  if (len > kMaxPayload) return FrameStatus::kOversized;
  const std::uint32_t want_crc = read_le32(buf.data() + 4);
  if (buf.size() < kFrameHeader + len) return FrameStatus::kNeedMore;
  const std::string_view body = buf.substr(kFrameHeader, len);
  if (crc32(body) != want_crc) return FrameStatus::kCorrupt;
  payload.assign(body);
  consumed = kFrameHeader + len;
  return FrameStatus::kOk;
}

}  // namespace resched::srv::proto
