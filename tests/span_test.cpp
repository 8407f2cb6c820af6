// Tests for the span tracer: runtime gating, nested recording, ring
// retention, dense thread ids, open-span (flight-recorder) visibility,
// thread-pool task hooks, and the Chrome trace-event exporter.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/event_trace.hpp"
#include "telemetry/span.hpp"
#include "util/thread_pool.hpp"

namespace ubac::telemetry {
namespace {

/// Installs `recorder` for the test body and always uninstalls it, so a
/// failing assertion cannot leave tracing on for later tests.
class ScopedInstall {
 public:
  explicit ScopedInstall(SpanRecorder& recorder) {
    SpanRecorder::install(&recorder);
  }
  ~ScopedInstall() { SpanRecorder::install(nullptr); }
};

TEST(SpanRecorder, DisabledByDefaultAndZeroCostToUse) {
  ASSERT_EQ(SpanRecorder::active(), nullptr);
  {
    UBAC_SPAN("noop", "test");
    UBAC_SPAN_ARG("noop_arg", "test", "x", 1.5);
    ScopedSpan span("manual", "test");
    EXPECT_FALSE(span.active());
    span.set_arg("ignored", 2.0);  // must be a no-op, not a crash
  }
}

TEST(SpanRecorder, RecordsNestedSpansInnermostFirst) {
  SpanRecorder recorder(64);
  {
    ScopedInstall install(recorder);
    ASSERT_EQ(SpanRecorder::active(), &recorder);
    {
      UBAC_SPAN("outer", "test");
      { UBAC_SPAN_ARG("inner", "test", "depth", 2); }
    }
  }
  const auto spans = recorder.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // The inner span completes (and is retained) first.
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_STREQ(spans[1].name, "outer");
  EXPECT_STREQ(spans[0].category, "test");
  EXPECT_EQ(spans[0].thread, spans[1].thread);
  ASSERT_NE(spans[0].arg_key, nullptr);
  EXPECT_STREQ(spans[0].arg_key, "depth");
  EXPECT_EQ(spans[0].arg_value, 2.0);
  EXPECT_GE(spans[0].duration_ns, 0);
  // The outer span encloses the inner one.
  EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[1].start_ns + spans[1].duration_ns,
            spans[0].start_ns + spans[0].duration_ns);
  EXPECT_EQ(recorder.recorded(), 2u);
}

TEST(SpanRecorder, SetArgReplacesTheInnermostArgument) {
  SpanRecorder recorder(64);
  {
    ScopedInstall install(recorder);
    UBAC_SPAN_ARG("solve", "test", "warm", 0.0);
    SpanRecorder::active()->set_arg("warm", 1.0);
  }
  const auto spans = recorder.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_NE(spans[0].arg_key, nullptr);
  EXPECT_STREQ(spans[0].arg_key, "warm");
  EXPECT_EQ(spans[0].arg_value, 1.0);
}

TEST(SpanRecorder, RingRetainsTheMostRecentSpans) {
  SpanRecorder recorder(4);  // already a power of two
  EXPECT_EQ(recorder.capacity(), 4u);
  {
    ScopedInstall install(recorder);
    for (int i = 0; i < 10; ++i) { UBAC_SPAN("span", "test"); }
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  const auto spans = recorder.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest first, and only the last capacity() claims survive.
  for (std::size_t i = 0; i < spans.size(); ++i)
    EXPECT_EQ(spans[i].seq, 6u + i);
}

TEST(SpanRecorder, ThreadsGetDenseIds) {
  SpanRecorder recorder(256);
  {
    ScopedInstall install(recorder);
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t)
      threads.emplace_back([] { UBAC_SPAN("worker", "test"); });
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(recorder.thread_count(), 3u);
  for (const auto& span : recorder.snapshot()) EXPECT_LT(span.thread, 3u);
}

TEST(SpanRecorder, OpenSpansAreVisibleUntilClosed) {
  SpanRecorder recorder(64);
  ScopedInstall install(recorder);
  recorder.begin("held", "test", "k", 7.0);
  const auto open = recorder.open_spans();
  ASSERT_EQ(open.size(), 1u);
  EXPECT_STREQ(open[0].name, "held");
  EXPECT_STREQ(open[0].arg_key, "k");
  EXPECT_EQ(open[0].arg_value, 7.0);
  recorder.end();
  EXPECT_TRUE(recorder.open_spans().empty());
  EXPECT_EQ(recorder.snapshot().size(), 1u);
}

TEST(SpanRecorder, ThreadPoolTasksAreTraced) {
  SpanRecorder recorder(256);
  std::atomic<int> ran{0};
  {
    ScopedInstall install(recorder);
    util::ThreadPool pool(2);
    pool.parallel_for(8, [&](std::size_t) { ++ran; });
  }
  EXPECT_EQ(ran.load(), 8);
  std::size_t pool_spans = 0;
  for (const auto& span : recorder.snapshot())
    if (std::string(span.name) == "pool.task") ++pool_spans;
  EXPECT_EQ(pool_spans, 8u);
}

// Span names per writer thread: a span's name, its thread lane and the
// writer index encoded in its argument must all agree, so a snapshot that
// copied a slot while a writer overwrote it shows up as a mixed span.
const char* const kWriterNames[] = {"writer 0", "writer 1", "writer 2",
                                    "writer 3"};

int writer_of(const SpanEvent& span) {
  for (int w = 0; w < 4; ++w)
    if (std::string(span.name) == kWriterNames[w]) return w;
  return -1;
}

TEST(SpanRecorder, SnapshotsDuringWritesReturnWholeSpans) {
  SpanRecorder recorder(64);  // small, so writers lap the reader often
  constexpr int kWriters = 2;
  constexpr int kPerWriter = 20'000;
  std::atomic<bool> reading{false};
  std::atomic<int> writing{kWriters};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      while (!reading.load()) std::this_thread::yield();
      for (int i = 0; i < kPerWriter; ++i) {
        recorder.begin(kWriterNames[w], "test", "i",
                       static_cast<double>(w * kPerWriter + i));
        recorder.end();
      }
      writing.fetch_sub(1);
    });

  std::size_t snapshots = 0;
  std::size_t checked = 0;
  std::uint32_t lane[kWriters] = {~0u, ~0u};
  reading.store(true);
  while (writing.load() > 0) {
    const auto spans = recorder.snapshot();
    ++snapshots;
    for (std::size_t k = 0; k < spans.size(); ++k) {
      const SpanEvent& span = spans[k];
      // No ASSERT here: returning early would leave the writers joinable.
      if (k > 0) {
        EXPECT_GT(span.seq, spans[k - 1].seq);
      }
      const int w = writer_of(span);
      if (w < 0) {
        ADD_FAILURE() << "span name torn: " << span.name;
        continue;
      }
      EXPECT_STREQ(span.category, "test");
      EXPECT_STREQ(span.arg_key, "i");
      EXPECT_EQ(static_cast<int>(span.arg_value) / kPerWriter, w);
      EXPECT_GE(span.duration_ns, 0);
      if (lane[w] == ~0u) lane[w] = span.thread;
      EXPECT_EQ(span.thread, lane[w]);
      ++checked;
    }
  }
  for (auto& t : writers) t.join();
  EXPECT_GT(snapshots, 0u);
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(recorder.recorded(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
}

TEST(SpanRecorder, QuiescentSnapshotIsExactAfterConcurrentWriters) {
  SpanRecorder recorder(8192);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 1'003;  // not a multiple of any buffer size
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        recorder.begin(kWriterNames[w], "test", "i", i);
        recorder.end();
      }
    });
  for (auto& t : writers) t.join();

  // No explicit flush: recorded() and snapshot() see every span.
  EXPECT_EQ(recorder.recorded(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
  const auto spans = recorder.snapshot();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kWriters) * kPerWriter);
  int next[kWriters] = {};
  for (std::size_t k = 0; k < spans.size(); ++k) {
    EXPECT_EQ(spans[k].seq, k);  // dense
    const int w = writer_of(spans[k]);
    ASSERT_GE(w, 0);
    // Each thread's spans keep their order.
    EXPECT_EQ(spans[k].arg_value, next[w]++);
  }
  for (int w = 0; w < kWriters; ++w) EXPECT_EQ(next[w], kPerWriter);
}

TEST(ChromeTraceWriter, WritesLoadableTraceEventJson) {
  SpanRecorder recorder(64);
  {
    ScopedInstall install(recorder);
    UBAC_SPAN_ARG("config.commit", "config", "alpha", 0.3);
  }
  ChromeTraceWriter writer;
  writer.add_spans(recorder, /*pid=*/1, "pipeline");
  writer.add_instant_event("admit", "admission", 1, 9999, 12.5,
                           "{\"flow\":3}");
  const std::string json = writer.to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete span
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // process name
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("config.commit"), std::string::npos);
  EXPECT_NE(json.find("\"alpha\":0.3"), std::string::npos);

  const std::string path = ::testing::TempDir() + "/ubac_span_test.json";
  writer.write(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
}

TEST(ChromeTraceWriter, BridgesEventTracerAsInstantEvents) {
  EventTracer tracer(64);
  TraceEvent ev;
  ev.kind = TraceEventKind::kReject;
  ev.flow_id = 42;
  ev.utilization = 0.9;
  ev.reason = "saturated";
  tracer.record(ev);

  ChromeTraceWriter writer;
  writer.add_tracer_events(tracer, /*epoch_ns=*/0, /*pid=*/1, /*tid=*/7,
                           "admission events");
  const std::string json = writer.to_json();
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("reject"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":7"), std::string::npos);
}

}  // namespace
}  // namespace ubac::telemetry
