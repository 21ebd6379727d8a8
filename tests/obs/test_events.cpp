// Tracer event tests, under the names of the flight recorder they replace:
// disabled no-op, stop keeps events, order and payload, one thread's ring
// wrapping, the Chrome instant-event shape, trigger with and without a
// dump path, dump while disabled, reset, and trigger keeping the trace of
// a request that throws. Concurrent event/snapshot stress lives in
// tests/parallel/test_stress.cpp (under TSan).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "obs/spans.hpp"

namespace treecode {
namespace {

namespace rt = obs::reqtrace;

obs::Json parse_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return obs::Json::parse(text.str());
}

bool file_exists(const std::string& path) { return std::ifstream(path).good(); }

std::vector<rt::SpanRecord> events() {
  std::vector<rt::SpanRecord> out;
  for (const rt::SpanRecord& span : rt::spans()) {
    if (span.kind == rt::SpanKind::kEvent) out.push_back(span);
  }
  return out;
}

std::uint64_t recorded() {
  return obs::registry().counter(obs::metric::kTraceRecordedSpans).value();
}

/// The "i" instants of a Chrome export.
std::vector<obs::Json> instants(const obs::Json& chrome) {
  std::vector<obs::Json> out;
  for (std::size_t i = 0; i < chrome.size(); ++i) {
    if (chrome.at(i).at("ph").as_string() == "i") out.push_back(chrome.at(i));
  }
  return out;
}

class RecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rt::reset();
    obs::registry().reset_values();
  }
  void TearDown() override { rt::reset(); }
};

TEST_F(RecorderTest, DisabledRecordIsANoOp) {
  EXPECT_FALSE(rt::enabled());
  rt::record_event("ignored", 1.0);
  EXPECT_EQ(recorded(), 0u);
  EXPECT_TRUE(rt::spans().empty());
}

TEST_F(RecorderTest, StopFreezesButKeepsEvents) {
  rt::enable();
  rt::record_event("kept", 1.0);
  rt::disable();
  rt::record_event("dropped", 2.0);
  const std::vector<rt::SpanRecord> kept = events();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_STREQ(kept[0].name, "kept");
}

TEST_F(RecorderTest, EventsComeBackInSequenceOrderWithPayload) {
  rt::enable();
  rt::record_event("phase.one", 0.25);
  rt::record_event("budget.demotions", 3.0);
  rt::record_event("cache.evict", 1024.0);
  const std::vector<rt::SpanRecord> got = events();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_STREQ(got[0].name, "phase.one");
  EXPECT_DOUBLE_EQ(got[0].value, 0.25);
  EXPECT_STREQ(got[1].name, "budget.demotions");
  EXPECT_STREQ(got[2].name, "cache.evict");
  EXPECT_DOUBLE_EQ(got[2].value, 1024.0);
  for (const rt::SpanRecord& e : got) {
    // Zero-duration timeline records on the caller's ring.
    EXPECT_TRUE(e.timeline());
    EXPECT_EQ(e.span_id, 0u);
    EXPECT_EQ(e.start_ns, e.end_ns);
    EXPECT_EQ(e.tid, got[0].tid);
  }
  EXPECT_LE(got[0].start_ns, got[2].start_ns);
}

TEST_F(RecorderTest, CategoryNamesAreStable) {
  EXPECT_STREQ(rt::span_kind_name(rt::SpanKind::kRequest), "request");
  EXPECT_STREQ(rt::span_kind_name(rt::SpanKind::kQueue), "queue");
  EXPECT_STREQ(rt::span_kind_name(rt::SpanKind::kBatch), "batch");
  EXPECT_STREQ(rt::span_kind_name(rt::SpanKind::kPhase), "phase");
  EXPECT_STREQ(rt::span_kind_name(rt::SpanKind::kEvent), "event");
}

TEST_F(RecorderTest, RingWraparoundKeepsTheMostRecentEvents) {
  rt::enable();
  const std::uint64_t total = rt::kSpanRingCapacity + 100;
  for (std::uint64_t i = 0; i < total; ++i) {
    rt::record_event("tick", static_cast<double>(i));
  }
  EXPECT_EQ(recorded(), total);
  const std::vector<rt::SpanRecord> got = events();
  ASSERT_EQ(got.size(), rt::kSpanRingCapacity);
  // The 100 oldest were overwritten; the survivors are contiguous and end
  // at the last record.
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i].value, static_cast<double>(100 + i));
  }
}

TEST_F(RecorderTest, ToJsonReportsDropsAndRoundTrips) {
  rt::enable();
  const std::uint64_t total = rt::kSpanRingCapacity + 17;
  for (std::uint64_t i = 0; i < total; ++i) {
    rt::record_event("w", static_cast<double>(i));
  }
  const std::vector<obs::Json> got = instants(obs::Json::parse(rt::chrome_json()));
  ASSERT_EQ(got.size(), rt::kSpanRingCapacity);
  // Drops are what was recorded but no longer readable.
  EXPECT_EQ(recorded() - got.size(), 17u);
  const obs::Json& first = got.front();
  EXPECT_EQ(first.at("name").as_string(), "w");
  EXPECT_EQ(first.at("cat").as_string(), "event");
  EXPECT_EQ(first.at("s").as_string(), "t");
  EXPECT_DOUBLE_EQ(first.at("args").at("value").as_double(), 17.0);
  EXPECT_FALSE(first.contains("dur"));
}

TEST_F(RecorderTest, TriggerWithoutDumpPathOnlyRecords) {
  rt::enable();
  rt::trigger("no path configured");
  const std::vector<rt::SpanRecord> got = events();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_STREQ(got[0].name, "no path configured");
  // No request installed: nothing to keep.
  EXPECT_EQ(obs::registry().counter(obs::metric::kTraceForcedKeeps).value(), 0u);
}

TEST_F(RecorderTest, TriggerDumpsToConfiguredPath) {
  const std::string path = ::testing::TempDir() + "trace_trigger.json";
  std::remove(path.c_str());
  rt::enable();
  rt::set_dump_path(path);
  rt::record_event("inv.check", 0.0);
  rt::trigger("invariant failure", 3.0);
  // The dump holds both the earlier event and the trigger's own.
  const std::vector<obs::Json> got = instants(parse_file(path));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].at("name").as_string(), "inv.check");
  EXPECT_EQ(got[1].at("name").as_string(), "invariant failure");
  EXPECT_DOUBLE_EQ(got[1].at("args").at("value").as_double(), 3.0);
  std::remove(path.c_str());
}

TEST_F(RecorderTest, DumpWorksWhileDisabled) {
  rt::enable();
  rt::record_event("before stop", 1.0);
  rt::disable();
  const std::string path = ::testing::TempDir() + "trace_disabled.json";
  std::remove(path.c_str());
  EXPECT_TRUE(rt::write_chrome_json(path));
  EXPECT_EQ(instants(parse_file(path)).size(), 1u);
  std::remove(path.c_str());
}

TEST_F(RecorderTest, ResetClearsEverything) {
  const std::string path = ::testing::TempDir() + "trace_after_reset.json";
  std::remove(path.c_str());
  rt::enable();
  rt::set_dump_path(path);
  rt::record_event("x", 0.0);
  rt::reset();
  EXPECT_FALSE(rt::enabled());
  EXPECT_TRUE(rt::spans().empty());
  // The dump path went with it.
  rt::enable();
  rt::trigger("after reset");
  EXPECT_FALSE(file_exists(path));
}

TEST_F(RecorderTest, TriggerKeepsTheTraceOfARequestThatThrows) {
  // A failure that throws unwinds its RequestScope, which closes with a
  // default-healthy record; only the trigger's forced keep retains it.
  rt::enable();  // healthy traces sample at rate 0
  const auto run = [](bool with_trigger) {
    rt::TraceContext ctx;
    try {
      const rt::RequestScope scope(obs::span::kReqEngineCompile);
      ctx = scope.context();
      rt::record_event("check", 1.0);
      if (with_trigger) rt::trigger("invariant failure", 1.0);
      throw std::runtime_error("invariant failure");
    } catch (const std::runtime_error&) {
    }
    return ctx;
  };
  const rt::TraceContext dropped = run(false);
  const rt::TraceContext kept = run(true);
  ASSERT_TRUE(kept.valid());
  EXPECT_FALSE(rt::is_retained(dropped));
  EXPECT_TRUE(rt::is_retained(kept));
  const std::vector<rt::RetainedTrace> retained = rt::retained();
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_STREQ(retained[0].reason, "forced");
  // Events stay timeline records: the retained trace holds its span only.
  ASSERT_EQ(retained[0].spans.size(), 1u);
  EXPECT_EQ(retained[0].spans[0].kind, rt::SpanKind::kRequest);
}

}  // namespace
}  // namespace treecode
