// Event-trace JSONL schema: golden-file rendering of the writer, the
// minimal reader, and byte-exact round-tripping — including a trace
// produced by a live engine run — plus seeded differentials of the
// to_chars formatter against printf("%.17g") and the ostream renderer it
// replaced, and the record sink against the streamed lines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/ft/disruption.hpp"
#include "src/ft/repair.hpp"
#include "src/online/service.hpp"
#include "src/online/trace.hpp"
#include "src/util/error.hpp"

namespace {

using namespace resched;
using online::TraceRecord;
using online::TraceWriter;

std::vector<TraceRecord> sample_records() {
  return {
      {0, 0.0, "submit", 4, -1, 0, 7200.0},
      {1, 3600.5, "resv_start", -1, -1, 16, 0.0},
      {2, 0.1, "accept", 4, -1, 0, 5459.300000000001},
      {3, 1e9, "task_done", 4, 2, 3, 0.0},
  };
}

// The exact bytes the writer must emit for the sample records. Any change
// to the schema (key order, number formatting, names) must update this
// golden block deliberately.
const char* kGolden =
    "{\"seq\":0,\"t\":0,\"type\":\"submit\",\"job\":4,\"task\":-1,"
    "\"procs\":0,\"value\":7200}\n"
    "{\"seq\":1,\"t\":3600.5,\"type\":\"resv_start\",\"job\":-1,\"task\":-1,"
    "\"procs\":16,\"value\":0}\n"
    "{\"seq\":2,\"t\":0.10000000000000001,\"type\":\"accept\",\"job\":4,"
    "\"task\":-1,\"procs\":0,\"value\":5459.3000000000011}\n"
    "{\"seq\":3,\"t\":1000000000,\"type\":\"task_done\",\"job\":4,\"task\":2,"
    "\"procs\":3,\"value\":0}\n";

TEST(Trace, WriterMatchesGoldenFile) {
  std::ostringstream out;
  TraceWriter writer(out);
  for (const TraceRecord& r : sample_records()) writer.write(r);
  EXPECT_EQ(out.str(), kGolden);
}

TEST(Trace, ReaderRoundTripsGoldenFile) {
  std::istringstream in(kGolden);
  std::vector<TraceRecord> parsed = online::read_trace(in);
  ASSERT_EQ(parsed.size(), 4u);
  EXPECT_EQ(parsed, sample_records());

  // Parsed values are bit-exact, so re-writing reproduces the bytes.
  std::ostringstream out;
  TraceWriter writer(out);
  for (const TraceRecord& r : parsed) writer.write(r);
  EXPECT_EQ(out.str(), kGolden);
}

TEST(Trace, ReaderSkipsBlankLinesAndRejectsMalformedOnes) {
  std::istringstream in(std::string(kGolden) + "\n\n");
  EXPECT_EQ(online::read_trace(in).size(), 4u);

  EXPECT_THROW(online::parse_trace_line("{}"), resched::Error);
  EXPECT_THROW(online::parse_trace_line("{\"seq\":1}"), resched::Error);
  EXPECT_THROW(
      online::parse_trace_line(
          "{\"seq\":0,\"t\":0,\"type\":\"submit\",\"job\":0,\"task\":0,"
          "\"procs\":0,\"value\":0}trailing"),
      resched::Error);
  EXPECT_THROW(
      online::parse_trace_line(
          "{\"seq\":x,\"t\":0,\"type\":\"submit\",\"job\":0,\"task\":0,"
          "\"procs\":0,\"value\":0}"),
      resched::Error);

  // Integer fields parse exactly: negative, fractional, exponent-form,
  // non-numeric and out-of-range values are schema violations, never a
  // cast from double.
  for (const char* line : {
           "{\"seq\":-1,\"t\":0,\"type\":\"submit\",\"job\":0,\"task\":0,"
           "\"procs\":0,\"value\":0}",
           "{\"seq\":1.5,\"t\":0,\"type\":\"submit\",\"job\":0,\"task\":0,"
           "\"procs\":0,\"value\":0}",
           "{\"seq\":18446744073709551616,\"t\":0,\"type\":\"submit\","
           "\"job\":0,\"task\":0,\"procs\":0,\"value\":0}",
           "{\"seq\":0,\"t\":0,\"type\":\"submit\",\"job\":1e10,\"task\":0,"
           "\"procs\":0,\"value\":0}",
           "{\"seq\":0,\"t\":0,\"type\":\"submit\",\"job\":2147483648,"
           "\"task\":0,\"procs\":0,\"value\":0}",
           "{\"seq\":0,\"t\":0,\"type\":\"submit\",\"job\":0,\"task\":nan,"
           "\"procs\":0,\"value\":0}",
           "{\"seq\":0,\"t\":0,\"type\":\"submit\",\"job\":0,\"task\":0,"
           "\"procs\":4E2,\"value\":0}",
           "{\"shard\":1.0,\"seq\":0,\"t\":0,\"type\":\"submit\",\"job\":0,"
           "\"task\":0,\"procs\":0,\"value\":0}",
           "{\"shard\":-2,\"seq\":0,\"t\":0,\"type\":\"submit\",\"job\":0,"
           "\"task\":0,\"procs\":0,\"value\":0}",
       })
    EXPECT_THROW(online::parse_trace_line(line), resched::Error) << line;

  // The integer range limits themselves still parse.
  const TraceRecord edge = online::parse_trace_line(
      "{\"shard\":2147483647,\"seq\":18446744073709551615,\"t\":0,"
      "\"type\":\"submit\",\"job\":-2147483648,\"task\":2147483647,"
      "\"procs\":0,\"value\":0}");
  EXPECT_EQ(edge.shard, std::numeric_limits<int>::max());
  EXPECT_EQ(edge.seq, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(edge.job, std::numeric_limits<int>::min());
  EXPECT_EQ(edge.task, std::numeric_limits<int>::max());
}

TEST(Trace, TypeNamesRequiringEscapingAreRejected) {
  std::ostringstream out;
  TraceWriter writer(out);
  EXPECT_THROW(writer.write({0, 0.0, "bad\"type", 0, 0, 0, 0.0}),
               resched::Error);
}

TEST(Trace, EngineTraceRoundTripsByteExactly) {
  // Drive a real engine run and round-trip the full trace.
  online::ServiceConfig config;
  config.capacity = 8;
  online::SchedulerService service(config);
  std::ostringstream trace_out;
  TraceWriter writer(trace_out);
  service.set_trace(&writer);

  service.submit_reservation(0.0, {100.0, 400.0, 4});
  std::vector<dag::TaskCost> costs{{120.0, 1.0}, {60.0, 1.0}};
  std::vector<std::pair<int, int>> edges{{0, 1}};
  service.submit({0, 50.0, dag::Dag(std::move(costs), edges), std::nullopt});
  service.run_all();

  std::string first = trace_out.str();
  ASSERT_FALSE(first.empty());
  std::istringstream in(first);
  std::vector<TraceRecord> parsed = online::read_trace(in);
  // submit + accept + 2x(start, completion) for the job, plus arrival,
  // start, end for the external reservation.
  EXPECT_EQ(parsed.size(), 9u);

  std::ostringstream rewritten;
  TraceWriter rewriter(rewritten);
  for (const TraceRecord& r : parsed) rewriter.write(r);
  EXPECT_EQ(rewritten.str(), first);
}

// --- formatter differentials -------------------------------------------------

std::string printf_17g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The ostream renderer to_json_line used before its to_chars rewrite,
/// kept verbatim as the reference.
std::string ostream_json_line(const TraceRecord& record) {
  std::ostringstream os;
  os << '{';
  if (record.shard >= 0) os << "\"shard\":" << record.shard << ',';
  os << "\"seq\":" << record.seq << ",\"t\":" << printf_17g(record.time)
     << ",\"type\":\"" << record.type << "\",\"job\":" << record.job
     << ",\"task\":" << record.task << ",\"procs\":" << record.procs
     << ",\"value\":" << printf_17g(record.value) << '}';
  return os.str();
}

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// ±0, subnormals, the normal range limits, ±inf, quiet/signalling/payload
/// NaNs of both signs, and the %g fixed/scientific switch points.
std::vector<double> edge_doubles() {
  using L = std::numeric_limits<double>;
  std::vector<double> v = {0.0,
                           -0.0,
                           L::denorm_min(),
                           -L::denorm_min(),
                           from_bits(0x000FFFFFFFFFFFFFull),
                           L::min(),
                           L::max(),
                           -L::max(),
                           L::infinity(),
                           -L::infinity(),
                           L::quiet_NaN(),
                           -L::quiet_NaN(),
                           L::signaling_NaN(),
                           from_bits(0x7FF0000000000001ull),
                           from_bits(0xFFF8000000000123ull),
                           0.1,
                           5459.300000000001,
                           1e-4,
                           9.9999999999999991e-5,
                           1e-5,
                           1e16,
                           1e17,
                           123456789012345678.0,
                           1e21,
                           -1e-300};
  return v;
}

TEST(TraceFormat, FormatDoubleMatchesPrintfOverRandomBitPatterns) {
  for (double v : edge_doubles())
    EXPECT_EQ(online::format_double(v), printf_17g(v)) << printf_17g(v);
  std::mt19937_64 rng(0x7ACE);
  int mismatches = 0;
  for (int i = 0; i < 200000; ++i) {
    const double v = from_bits(rng());
    if (online::format_double(v) != printf_17g(v) && ++mismatches <= 5)
      ADD_FAILURE() << "format_double differs from %.17g for "
                    << printf_17g(v);
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(TraceFormat, JsonLineMatchesOstreamRendererOnRandomRecords) {
  const std::vector<double> edges = edge_doubles();
  const std::vector<std::string> types = {
      "submit", "accept", "ft_task_replaced", "", std::string(300, 'x')};
  std::mt19937_64 rng(0x15ED);
  const auto pick_double = [&] {
    const std::uint64_t r = rng();
    return r % 4 == 0 ? edges[(r >> 8) % edges.size()] : from_bits(rng());
  };
  const auto pick_int = [&] {
    const std::uint64_t r = rng();
    switch (r % 4) {
      case 0: return std::numeric_limits<int>::min();
      case 1: return std::numeric_limits<int>::max();
      default: return static_cast<int>(static_cast<std::int32_t>(r >> 32));
    }
  };
  for (int i = 0; i < 20000; ++i) {
    TraceRecord r;
    r.seq = i % 7 == 0 ? std::numeric_limits<std::uint64_t>::max() : rng();
    r.time = pick_double();
    r.type = types[rng() % types.size()];
    r.job = pick_int();
    r.task = pick_int();
    r.procs = pick_int();
    r.value = pick_double();
    r.shard = i % 3 == 0 ? -1 : (i % 3 == 1 ? pick_int() : 7);
    ASSERT_EQ(online::to_json_line(r), ostream_json_line(r)) << "record " << i;
  }
}

// --- record sink -------------------------------------------------------------

/// One engine run with `writer` attached: an external reservation, an
/// accepted job, a deadline job rejected as infeasible, and a processor
/// outage whose repair records reach the trace through
/// ft::ServiceAccess::trace.
void run_traced_scenario(TraceWriter& writer) {
  online::ServiceConfig config;
  config.capacity = 8;
  config.admission = online::AdmissionPolicy::kRejectInfeasible;
  online::SchedulerService service(config);
  ft::RepairEngine repair(service);
  service.set_trace(&writer);

  service.submit_reservation(0.0, {100.0, 400.0, 4});
  std::vector<dag::TaskCost> costs{{1200.0, 0.5}, {600.0, 0.5}};
  std::vector<std::pair<int, int>> edges{{0, 1}};
  service.submit({0, 50.0, dag::Dag(std::move(costs), edges), std::nullopt});
  service.submit({1, 60.0, dag::Dag({{600.0, 0.0}}, {}), 61.0});
  ft::Disruption outage;
  outage.id = 0;
  outage.type = ft::DisruptionType::kProcOutage;
  outage.time = 200.0;
  outage.procs = 6;
  outage.duration = 900.0;
  repair.schedule(outage);
  service.run_all();
}

TEST(Trace, RecordSinkCapturesExactlyWhatTheStreamWrites) {
  std::ostringstream streamed;
  TraceWriter stream_writer(streamed, 3);
  run_traced_scenario(stream_writer);

  std::vector<TraceRecord> records;
  TraceWriter sink_writer(records, 3);
  run_traced_scenario(sink_writer);

  std::vector<std::string> lines;
  std::istringstream in(streamed.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(records.size(), lines.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(online::to_json_line(records[i]), lines[i]) << "record " << i;
    EXPECT_EQ(records[i].shard, 3);
  }
  // The sink holds what parsing the stream back yields.
  std::istringstream reparse(streamed.str());
  EXPECT_EQ(online::read_trace(reparse), records);

  // The scenario reaches every record source it is meant to cover.
  const auto has = [&](const char* type) {
    return std::any_of(records.begin(), records.end(),
                       [&](const TraceRecord& r) { return r.type == type; });
  };
  EXPECT_TRUE(has("resv_start"));
  EXPECT_TRUE(has("accept"));
  EXPECT_TRUE(has("reject"));
  EXPECT_TRUE(has("ft_outage"));
}

}  // namespace
