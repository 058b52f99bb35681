// Observability subsystem tests: span ring saturation, cross-thread span
// nesting, counter atomicity across the worker pool's lanes,
// histogram bucket arithmetic, deterministic Chrome-trace / JSONL output,
// registry handle stability, and the disabled-mode overhead guard.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "src/obs/obs.hpp"
#include "src/util/worker_pool.hpp"

namespace {

using namespace resched;

/// Every test leaves the global tracer stopped and metrics disabled so the
/// suite has no cross-test instrumentation state.
class ObsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::Tracer::global().stop();
    obs::set_metrics_enabled(false);
    obs::registry().reset();
  }
};

TEST_F(ObsTest, SpanRingSaturatesInsteadOfWrapping) {
  obs::SpanRing ring(4);
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(ring.record({"span", i * 10, i * 10 + 5, 0}));
  EXPECT_FALSE(ring.record({"overflow", 100, 101, 0}));
  EXPECT_FALSE(ring.record({"overflow", 102, 103, 0}));

  auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(ring.dropped(), 2u);
  // Claim order is preserved and overflow events never land.
  for (int i = 0; i < 4; ++i) {
    EXPECT_STREQ(events[static_cast<std::size_t>(i)].name, "span");
    EXPECT_EQ(events[static_cast<std::size_t>(i)].start_ns, i * 10);
  }

  ring.clear();
  EXPECT_TRUE(ring.snapshot().empty());
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.record({"again", 0, 1, 0}));
}

TEST_F(ObsTest, SpanNestingAcrossThreadsKeepsPerThreadContainment) {
  obs::Tracer::global().start(1 << 12);

  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([] {
      OBS_SPAN("test.outer");
      {
        OBS_SPAN("test.inner");
        // Give the inner span measurable width so containment is strict.
        auto until = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(200);
        while (std::chrono::steady_clock::now() < until) {
        }
      }
    });
  for (auto& w : workers) w.join();
  obs::Tracer::global().stop();

  auto events = obs::Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 2u * kThreads);

  std::map<std::uint32_t, std::vector<obs::SpanEvent>> by_tid;
  for (const auto& ev : events) by_tid[ev.tid].push_back(ev);
  ASSERT_EQ(by_tid.size(), static_cast<std::size_t>(kThreads))
      << "each worker thread must get a distinct dense tid";

  for (const auto& [tid, spans] : by_tid) {
    ASSERT_EQ(spans.size(), 2u);
    // The inner guard closes (and records) before the outer one.
    EXPECT_STREQ(spans[0].name, "test.inner");
    EXPECT_STREQ(spans[1].name, "test.outer");
    EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
    EXPECT_GE(spans[1].end_ns, spans[0].end_ns);
    EXPECT_LT(spans[0].start_ns, spans[0].end_ns);
  }
}

TEST_F(ObsTest, CountersAndHistogramsAreExactUnderParallelFor) {
  obs::set_metrics_enabled(true);
  obs::registry().reset();

  constexpr int kIters = 20000;
  util::WorkerPool pool(4);
  pool.run(kIters, [](int i) {
    OBS_COUNT("test.parallel.counter", 1);
    OBS_COUNT("test.parallel.weighted", 3);
    OBS_HIST("test.parallel.hist", static_cast<std::uint64_t>(i));
  });

  EXPECT_EQ(obs::registry().counter("test.parallel.counter").value(),
            static_cast<std::uint64_t>(kIters));
  EXPECT_EQ(obs::registry().counter("test.parallel.weighted").value(),
            3u * kIters);

  auto& h = obs::registry().histogram("test.parallel.hist");
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kIters));
  EXPECT_EQ(h.sum(),
            static_cast<std::uint64_t>(kIters) * (kIters - 1) / 2);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), static_cast<std::uint64_t>(kIters - 1));
}

TEST_F(ObsTest, HistogramBucketBoundaries) {
  // Bucket b holds values with bit_width == b: {0}, {1}, {2,3}, {4..7}, ...
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3);
  EXPECT_EQ(obs::Histogram::bucket_of(~std::uint64_t{0}), 64);
  for (int b = 1; b < obs::Histogram::kBucketCount; ++b) {
    EXPECT_EQ(obs::Histogram::bucket_of(obs::Histogram::bucket_lower(b)), b);
    EXPECT_EQ(obs::Histogram::bucket_of(obs::Histogram::bucket_upper(b)), b);
    if (b >= 2) {
      EXPECT_EQ(obs::Histogram::bucket_lower(b),
                obs::Histogram::bucket_upper(b - 1) + 1);
    }
  }

  obs::Histogram h;
  for (std::uint64_t v : {0u, 1u, 2u, 3u, 4u, 7u, 8u, 1000u})
    h.record(v);
  auto buckets = h.buckets();
  EXPECT_EQ(buckets[0], 1u);  // value 0
  EXPECT_EQ(buckets[1], 1u);  // value 1
  EXPECT_EQ(buckets[2], 2u);  // values 2, 3
  EXPECT_EQ(buckets[3], 2u);  // values 4, 7
  EXPECT_EQ(buckets[4], 1u);  // value 8
  EXPECT_EQ(buckets[10], 1u);  // 1000 in [512,1023]
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.sum(), 1025u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);

  // Quantiles are conservative bucket upper bounds, clamped to max().
  EXPECT_EQ(h.quantile(0.0), 0u);   // rank 1 -> bucket 0
  EXPECT_EQ(h.quantile(0.5), 3u);   // rank 4 -> bucket 2 upper bound
  EXPECT_EQ(h.quantile(1.0), 1000u);  // top bucket clamps to max()

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST_F(ObsTest, ChromeTraceJsonGolden) {
  // Synthetic spans spanning two threads, nesting, and a category-less
  // name; byte-exact against the deterministic writer.
  std::vector<obs::SpanEvent> events = {
      {"core.ressched", 1500, 9500, 0},
      {"core.ressched.bottom_levels", 2000, 3000, 0},
      {"online.event", 1000, 4500, 1},
      {"flat", 2500, 2600, 1},
  };
  std::ostringstream out;
  obs::write_chrome_trace(out, events);
  EXPECT_EQ(
      out.str(),
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"thread-0\"}},"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"thread-1\"}},"
      "{\"name\":\"core.ressched\",\"cat\":\"core\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":0,\"ts\":0.500,\"dur\":8.000},"
      "{\"name\":\"core.ressched.bottom_levels\",\"cat\":\"core\","
      "\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1.000,\"dur\":1.000},"
      "{\"name\":\"online.event\",\"cat\":\"online\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":1,\"ts\":0.000,\"dur\":3.500},"
      "{\"name\":\"flat\",\"cat\":\"flat\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":1,\"ts\":1.500,\"dur\":0.100}]}");
}

TEST_F(ObsTest, MetricsJsonlSnapshotFormat) {
  obs::set_metrics_enabled(true);
  obs::registry().reset();
  obs::registry().counter("test.jsonl.counter").add(41);
  obs::registry().counter("test.jsonl.counter").add(1);
  auto& h = obs::registry().histogram("test.jsonl.hist");
  h.record(1);
  h.record(1000);

  obs::MetricsSnapshot snap = obs::registry().snapshot();
  std::ostringstream out;
  snap.write_jsonl(out);
  std::istringstream lines(out.str());
  std::string line;
  bool saw_counter = false, saw_hist = false;
  while (std::getline(lines, line)) {
    if (line.find("test.jsonl.counter") != std::string::npos) {
      EXPECT_EQ(line,
                "{\"type\":\"counter\",\"name\":\"test.jsonl.counter\","
                "\"value\":42}");
      saw_counter = true;
    }
    if (line.find("test.jsonl.hist") != std::string::npos) {
      EXPECT_EQ(line,
                "{\"type\":\"histogram\",\"name\":\"test.jsonl.hist\","
                "\"count\":2,\"sum\":1001,\"min\":1,\"max\":1000,"
                "\"p50\":1,\"p90\":1000,\"p99\":1000,"
                "\"buckets\":[[1,1],[512,1]]}");
      saw_hist = true;
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_hist);
}

TEST_F(ObsTest, RegistryHandlesAreStableAcrossLookupAndReset) {
  obs::Counter& c1 = obs::registry().counter("test.stable.counter");
  obs::Counter& c2 = obs::registry().counter("test.stable.counter");
  EXPECT_EQ(&c1, &c2);
  c1.add(7);
  obs::registry().reset();
  EXPECT_EQ(&obs::registry().counter("test.stable.counter"), &c1);
  EXPECT_EQ(c1.value(), 0u);

  obs::Histogram& h1 = obs::registry().histogram("test.stable.hist");
  h1.record(9);
  obs::registry().reset();
  EXPECT_EQ(&obs::registry().histogram("test.stable.hist"), &h1);
  EXPECT_EQ(h1.count(), 0u);
}

/// Instrumented but idle sites must record nothing and cost (amortised)
/// no more than a few relaxed loads. The wall-clock bound is deliberately
/// loose — it guards against accidental clock reads / registry lookups in
/// the disabled path, not nanosecond drift on a loaded CI runner.
TEST_F(ObsTest, DisabledModeRecordsNothingAndStaysCheap) {
  obs::Tracer::global().stop();
  obs::set_metrics_enabled(false);
  obs::registry().reset();
  const std::size_t spans_before = obs::Tracer::global().snapshot().size();

  constexpr int kIters = 200000;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    OBS_SPAN("test.overhead.span");
    OBS_PHASE("test.overhead.phase");
    OBS_COUNT("test.overhead.counter", 1);
    OBS_HIST("test.overhead.hist", static_cast<std::uint64_t>(i));
  }
  double ns_per_iter =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() -
                                               t0)
          .count() /
      kIters;

  EXPECT_EQ(obs::Tracer::global().snapshot().size(), spans_before);
  obs::MetricsSnapshot snap = obs::registry().snapshot();
  for (const auto& c : snap.counters)
    EXPECT_EQ(c.value, 0u) << c.name;
  for (const auto& h : snap.histograms)
    EXPECT_EQ(h.count, 0u) << h.name;

  // Four disabled sites per iteration; a real regression (clock read or
  // registry mutex on the hot path) costs microseconds, not <1us.
  EXPECT_LT(ns_per_iter, 1000.0)
      << "disabled-mode instrumentation should be a handful of relaxed "
         "loads per site";
}

}  // namespace
