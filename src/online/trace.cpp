#include "src/online/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>
#include <string_view>
#include <system_error>

#include "src/util/error.hpp"

namespace resched::online {

namespace {

/// Characters of the longest %.17g rendering: sign, 17 digits, point and
/// a five-character exponent ("-4.9406564584124654e-324").
constexpr std::size_t kDoubleChars = 24;
/// Characters of the longest rendered integer field (a 20-digit seq).
constexpr std::size_t kIntChars = 20;
/// Upper bound on a rendered line's characters besides its type name: 66
/// of keys and punctuation (newline included), a shard id and three ints
/// of at most 11, a 20-digit seq and two doubles come to 178; the slack
/// covers the kIntChars bound each integer is rendered against.
constexpr std::size_t kLineChars = 192;

char* put(char* p, std::string_view s) {
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

template <typename Int>
char* put_int(char* p, Int v) {
  return std::to_chars(p, p + kIntChars, v).ptr;
}

char* put_double(char* p, double v) {
  return std::to_chars(p, p + kDoubleChars, v, std::chars_format::general, 17)
      .ptr;
}

/// Renders `record` tagged with `shard` (untagged when negative) into
/// `line`, replacing its contents, with a trailing newline on request.
void render(const TraceRecord& record, int shard, bool newline,
            std::string& line) {
  RESCHED_CHECK(record.type.find_first_of("\"\\") == std::string::npos,
                "trace type names must not need JSON escaping");
  line.resize(kLineChars + record.type.size());
  char* p = line.data();
  p = put(p, "{");
  if (shard >= 0) {
    p = put(p, "\"shard\":");
    p = put_int(p, shard);
    p = put(p, ",");
  }
  p = put(p, "\"seq\":");
  p = put_int(p, record.seq);
  p = put(p, ",\"t\":");
  p = put_double(p, record.time);
  p = put(p, ",\"type\":\"");
  p = put(p, record.type);
  p = put(p, "\",\"job\":");
  p = put_int(p, record.job);
  p = put(p, ",\"task\":");
  p = put_int(p, record.task);
  p = put(p, ",\"procs\":");
  p = put_int(p, record.procs);
  p = put(p, ",\"value\":");
  p = put_double(p, record.value);
  p = put(p, newline ? std::string_view("}\n") : std::string_view("}"));
  line.resize(static_cast<std::size_t>(p - line.data()));
}

}  // namespace

std::string format_double(double v) {
  char buf[kDoubleChars];
  return {buf, put_double(buf, v)};
}

std::string to_json_line(const TraceRecord& record) {
  std::string line;
  render(record, record.shard, /*newline=*/false, line);
  return line;
}

void TraceWriter::write(const TraceRecord& record) {
  const int shard = record.shard >= 0 ? record.shard : shard_;
  if (sink_ != nullptr) {
    sink_->push_back(record);
    sink_->back().shard = shard;
    return;
  }
  render(record, shard, /*newline=*/true, line_);
  out_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
}

namespace {

/// Cursor over one line; the schema has a fixed key order, so parsing is a
/// straight left-to-right scan.
class LineParser {
 public:
  explicit LineParser(const std::string& line) : line_(line) {}

  void expect(const char* literal) {
    std::size_t len = std::char_traits<char>::length(literal);
    RESCHED_CHECK(line_.compare(pos_, len, literal) == 0,
                  "malformed trace line: expected '" + std::string(literal) +
                      "' in: " + line_);
    pos_ += len;
  }

  double number() {
    const char* begin = line_.c_str() + pos_;
    char* end = nullptr;
    double v = std::strtod(begin, &end);
    RESCHED_CHECK(end != begin, "malformed trace number in: " + line_);
    pos_ += static_cast<std::size_t>(end - begin);
    return v;
  }

  /// An integer field, parsed exactly: a fractional, non-numeric or
  /// out-of-range value is a schema violation, never a silent cast.
  template <typename Int>
  Int integer() {
    const char* begin = line_.data() + pos_;
    Int v = 0;
    const auto [end, ec] =
        std::from_chars(begin, line_.data() + line_.size(), v);
    RESCHED_CHECK(ec != std::errc::result_out_of_range,
                  "trace integer out of range in: " + line_);
    // data()[size()] is the terminating NUL, so *end is always readable.
    RESCHED_CHECK(ec == std::errc() && *end != '.' && *end != 'e' &&
                      *end != 'E',
                  "malformed trace integer in: " + line_);
    pos_ += static_cast<std::size_t>(end - begin);
    return v;
  }

  std::string quoted_string() {
    expect("\"");
    std::size_t close = line_.find('"', pos_);
    RESCHED_CHECK(close != std::string::npos,
                  "unterminated trace string in: " + line_);
    std::string s = line_.substr(pos_, close - pos_);
    pos_ = close + 1;
    return s;
  }

  void expect_end() {
    RESCHED_CHECK(pos_ == line_.size(),
                  "trailing characters in trace line: " + line_);
  }

 private:
  const std::string& line_;
  std::size_t pos_ = 0;
};

}  // namespace

TraceRecord parse_trace_line(const std::string& line) {
  LineParser p(line);
  TraceRecord r;
  p.expect("{");
  if (line.compare(1, 8, "\"shard\":") == 0) {
    p.expect("\"shard\":");
    r.shard = p.integer<int>();
    RESCHED_CHECK(r.shard >= 0, "trace shard id must be >= 0 in: " + line);
    p.expect(",");
  }
  p.expect("\"seq\":");
  r.seq = p.integer<std::uint64_t>();
  p.expect(",\"t\":");
  r.time = p.number();
  p.expect(",\"type\":");
  r.type = p.quoted_string();
  p.expect(",\"job\":");
  r.job = p.integer<int>();
  p.expect(",\"task\":");
  r.task = p.integer<int>();
  p.expect(",\"procs\":");
  r.procs = p.integer<int>();
  p.expect(",\"value\":");
  r.value = p.number();
  p.expect("}");
  p.expect_end();
  return r;
}

std::vector<TraceRecord> read_trace(std::istream& in) {
  std::vector<TraceRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    records.push_back(parse_trace_line(line));
  }
  return records;
}

std::vector<TraceRecord> merge_traces(
    std::vector<std::vector<TraceRecord>> shards) {
  std::vector<TraceRecord> merged;
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    for (TraceRecord& r : shards[i])
      if (r.shard < 0) r.shard = static_cast<int>(i);
    total += shards[i].size();
  }
  merged.reserve(total);
  for (std::vector<TraceRecord>& s : shards)
    merged.insert(merged.end(), std::make_move_iterator(s.begin()),
                  std::make_move_iterator(s.end()));
  // Each input is time-ordered already, so this is a k-way merge in
  // disguise; stable_sort keeps per-shard seq order without comparing it
  // twice and the explicit key makes the contract self-documenting.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     if (a.time != b.time) return a.time < b.time;
                     if (a.shard != b.shard) return a.shard < b.shard;
                     return a.seq < b.seq;
                   });
  return merged;
}

}  // namespace resched::online
