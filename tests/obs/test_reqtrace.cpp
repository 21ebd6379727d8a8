// Tracer unit tests: deterministic id minting for a fixed seed, tail-based
// keep rules and their reason precedence, identity-hashed sampling
// (schedule-independent), forced-keep linkage from a retained member to its
// batch trace, ring wraparound (newest spans win), retained FIFO eviction,
// the JSONL / Chrome export shapes, and the process timeline: a disabled
// tracer records nothing, nested spans nest, reset drops stale spans,
// worker spans outlive their pool, a ScopedTimer records exactly once, and
// parallel regions never draw request ids at any pool width. The request
// log: a disabled log is a no-op, records round-trip through the ring,
// ring overflow keeps the newest (logged_count keeps the true total),
// registry side effects, the JSON shape and the JSONL sink. Concurrent
// record/finish/log stress lives in tests/parallel/test_stress.cpp (TSan).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "obs/spans.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "util/timer.hpp"

namespace treecode {
namespace {

namespace rt = obs::reqtrace;

class ReqTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rt::reset();
    obs::registry().reset_values();
  }
  void TearDown() override {
    rt::reset();
    obs::registry().reset_values();
  }

  static rt::SamplerConfig keep_nothing() {
    rt::SamplerConfig c;
    c.seed = 7;
    c.sample_rate = 0.0;
    return c;
  }

  static std::vector<std::string> lines_of(const std::string& text) {
    std::vector<std::string> lines;
    std::string::size_type pos = 0;
    while (pos < text.size()) {
      const auto nl = text.find('\n', pos);
      lines.push_back(text.substr(pos, nl - pos));
      if (nl == std::string::npos) break;
      pos = nl + 1;
    }
    return lines;
  }
};

TEST_F(ReqTraceTest, HexRenderingsAreStable) {
  EXPECT_EQ(rt::trace_id_hex(0, 0), std::string(32, '0'));
  EXPECT_EQ(rt::trace_id_hex(0x0123456789abcdefULL, 0xfedcba9876543210ULL),
            "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(rt::span_id_hex(0xabcULL), "0000000000000abc");
  EXPECT_EQ(rt::span_kind_name(rt::SpanKind::kRequest), std::string("request"));
  EXPECT_EQ(rt::span_kind_name(rt::SpanKind::kQueue), std::string("queue"));
  EXPECT_EQ(rt::span_kind_name(rt::SpanKind::kBatch), std::string("batch"));
  EXPECT_EQ(rt::span_kind_name(rt::SpanKind::kPhase), std::string("phase"));
}

TEST_F(ReqTraceTest, DisabledCallsAreInert) {
  EXPECT_FALSE(rt::enabled());
  const rt::TraceContext ctx = rt::mint_request();
  EXPECT_FALSE(ctx.valid());
  rt::record_span(ctx, obs::span::kServiceRequest, rt::SpanKind::kRequest, 0, 1);
  rt::finish_request(ctx, rt::RequestRecord{.ok = false});
  EXPECT_TRUE(rt::retained().empty());
  EXPECT_TRUE(rt::jsonl().empty());
}

TEST_F(ReqTraceTest, MintedIdsAreDeterministicForAFixedSeed) {
  rt::enable(keep_nothing());
  std::vector<rt::TraceContext> first;
  for (int i = 0; i < 4; ++i) first.push_back(rt::mint_request());
  rt::reset();
  rt::enable(keep_nothing());
  for (int i = 0; i < 4; ++i) {
    const rt::TraceContext again = rt::mint_request();
    EXPECT_EQ(again.trace_hi, first[i].trace_hi) << i;
    EXPECT_EQ(again.trace_lo, first[i].trace_lo) << i;
    EXPECT_EQ(again.span_id, first[i].span_id) << i;
  }
  // A different seed produces a different id stream.
  rt::reset();
  rt::SamplerConfig other = keep_nothing();
  other.seed = 8;
  rt::enable(other);
  EXPECT_NE(rt::mint_request().trace_lo, first[0].trace_lo);
}

TEST_F(ReqTraceTest, ChildSharesTraceAndLinksParentSpan) {
  rt::enable(keep_nothing());
  const rt::TraceContext root = rt::mint_request();
  ASSERT_TRUE(root.valid());
  EXPECT_EQ(root.parent_span_id, 0u);
  const rt::TraceContext child = rt::child_of(root);
  EXPECT_EQ(child.trace_hi, root.trace_hi);
  EXPECT_EQ(child.trace_lo, root.trace_lo);
  EXPECT_EQ(child.parent_span_id, root.span_id);
  EXPECT_NE(child.span_id, root.span_id);
  EXPECT_FALSE(rt::child_of(rt::TraceContext{}).valid());
}

TEST_F(ReqTraceTest, TailKeepRulesAndReasonPrecedence) {
  rt::enable(keep_nothing());
  struct Case {
    rt::RequestRecord record;
    const char* reason;  // nullptr = dropped
  };
  const std::vector<Case> cases = {
      {rt::RequestRecord{}, nullptr},  // healthy at sample_rate 0: dropped
      {rt::RequestRecord{.rung = 0}, nullptr},  // plan replay is healthy
      {rt::RequestRecord{.ok = false, .rung = 1, .deadline_missed = true}, "error"},
      {rt::RequestRecord{.rung = 1, .deadline_missed = true}, "deadline"},
      {rt::RequestRecord{.rung = 1, .slo_breach = true}, "degraded"},
      {rt::RequestRecord{.slo_breach = true}, "slo"},
  };
  for (const Case& c : cases) {
    const rt::TraceContext ctx = rt::mint_request();
    rt::record_span(ctx, obs::span::kServiceRequest, rt::SpanKind::kRequest, 0, 1);
    rt::finish_request(ctx, c.record);
    EXPECT_EQ(rt::is_retained(ctx), c.reason != nullptr);
  }
  const std::vector<rt::RetainedTrace> retained = rt::retained();
  ASSERT_EQ(retained.size(), 4u);
  EXPECT_STREQ(retained[0].reason, "error");
  EXPECT_STREQ(retained[1].reason, "deadline");
  EXPECT_STREQ(retained[2].reason, "degraded");
  EXPECT_STREQ(retained[3].reason, "slo");
  const obs::MetricsSnapshot snapshot = obs::registry().snapshot();
  EXPECT_EQ(snapshot.counters.at(obs::metric::kTraceRequests), 6u);
  EXPECT_EQ(snapshot.counters.at(obs::metric::kTraceRetained), 4u);
  EXPECT_EQ(snapshot.counters.at(obs::metric::kTraceSampledOut), 2u);
}

TEST_F(ReqTraceTest, SlowRuleKeepsOverThresholdRequests) {
  rt::SamplerConfig config = keep_nothing();
  config.keep_slower_than_seconds = 0.5;
  rt::enable(config);
  const rt::TraceContext fast = rt::mint_request();
  rt::finish_request(fast, rt::RequestRecord{.wall_seconds = 0.1});
  EXPECT_FALSE(rt::is_retained(fast));
  const rt::TraceContext slow = rt::mint_request();
  rt::finish_request(slow, rt::RequestRecord{.wall_seconds = 0.9});
  ASSERT_TRUE(rt::is_retained(slow));
  EXPECT_STREQ(rt::retained().back().reason, "slow");
}

TEST_F(ReqTraceTest, SampleRateOneKeepsHealthyTracesAsSampled) {
  rt::SamplerConfig config = keep_nothing();
  config.sample_rate = 1.0;
  rt::enable(config);
  const rt::TraceContext ctx = rt::mint_request();
  rt::finish_request(ctx, rt::RequestRecord{});
  ASSERT_TRUE(rt::is_retained(ctx));
  EXPECT_STREQ(rt::retained().back().reason, "sampled");
}

TEST_F(ReqTraceTest, SamplingCoinDependsOnIdentityNotCompletionOrder) {
  rt::SamplerConfig config = keep_nothing();
  config.sample_rate = 0.5;
  rt::enable(config);
  std::vector<rt::TraceContext> contexts;
  for (int i = 0; i < 32; ++i) contexts.push_back(rt::mint_request());
  std::set<std::pair<std::uint64_t, std::uint64_t>> forward;
  for (const rt::TraceContext& ctx : contexts) {
    rt::finish_request(ctx, rt::RequestRecord{});
    if (rt::is_retained(ctx)) forward.insert({ctx.trace_hi, ctx.trace_lo});
  }
  // A 0.5 coin over 32 ids keeps some and drops some with overwhelming
  // probability; both sides being exercised is what makes the order check
  // meaningful.
  ASSERT_FALSE(forward.empty());
  ASSERT_LT(forward.size(), contexts.size());

  // Same ids (same seed, fresh stream), reverse completion order: the keep
  // set must be identical because the coin hashes the trace id alone.
  rt::reset();
  rt::enable(config);
  contexts.clear();
  for (int i = 0; i < 32; ++i) contexts.push_back(rt::mint_request());
  std::set<std::pair<std::uint64_t, std::uint64_t>> backward;
  for (auto it = contexts.rbegin(); it != contexts.rend(); ++it) {
    rt::finish_request(*it, rt::RequestRecord{});
    if (rt::is_retained(*it)) backward.insert({it->trace_hi, it->trace_lo});
  }
  EXPECT_EQ(forward, backward);
}

TEST_F(ReqTraceTest, RetainedMemberForceKeepsItsBatchTrace) {
  rt::enable(keep_nothing());
  const rt::TraceContext member = rt::mint_request();
  const rt::TraceContext batch = rt::mint_request();
  rt::finish_request(member, rt::RequestRecord{.ok = false}, &batch);
  // The batch finishes healthy later; the member's retention already
  // demanded it be kept so the flow link resolves in exports.
  rt::finish_request(batch, rt::RequestRecord{});
  ASSERT_TRUE(rt::is_retained(batch));
  EXPECT_STREQ(rt::retained().back().reason, "forced");
  EXPECT_EQ(obs::registry().snapshot().counters.at(obs::metric::kTraceForcedKeeps),
            1u);
}

TEST_F(ReqTraceTest, DroppedMemberDoesNotForceItsBatch) {
  rt::enable(keep_nothing());
  const rt::TraceContext member = rt::mint_request();
  const rt::TraceContext batch = rt::mint_request();
  rt::finish_request(member, rt::RequestRecord{}, &batch);  // healthy: sampled out
  rt::finish_request(batch, rt::RequestRecord{});
  EXPECT_FALSE(rt::is_retained(member));
  EXPECT_FALSE(rt::is_retained(batch));
}

TEST_F(ReqTraceTest, NoteChildVerdictForcesEnclosingTrace) {
  rt::enable(keep_nothing());
  const rt::TraceContext root = rt::mint_request();
  const rt::TraceContext child = rt::child_of(root);
  rt::note_child_verdict(child, rt::RequestRecord{.ok = false});
  rt::finish_request(root, rt::RequestRecord{});  // root itself looks healthy
  ASSERT_TRUE(rt::is_retained(root));
  EXPECT_STREQ(rt::retained().back().reason, "forced");
  // A healthy child leaves no demand behind.
  const rt::TraceContext root2 = rt::mint_request();
  rt::note_child_verdict(rt::child_of(root2), rt::RequestRecord{});
  rt::finish_request(root2, rt::RequestRecord{});
  EXPECT_FALSE(rt::is_retained(root2));
}

TEST_F(ReqTraceTest, RingWraparoundKeepsNewestSpans) {
  rt::enable(keep_nothing());
  // Overfill this thread's 512-slot ring with timeline spans; the oldest
  // 100 must be overwritten, the newest 512 all readable.
  const std::int64_t total = 512 + 100;
  for (std::int64_t i = 0; i < total; ++i) {
    rt::record_timeline_span(obs::span::kEngineReplay, i, i + 1);
  }
  const std::vector<rt::SpanRecord> spans = rt::spans();
  ASSERT_EQ(spans.size(), 512u);
  // Spans come back sorted by start time; the survivors are exactly the
  // newest 512 writes.
  EXPECT_EQ(spans.front().start_ns, total - 512);
  EXPECT_EQ(spans.back().start_ns, total - 1);
  EXPECT_TRUE(spans.front().timeline());
}

TEST_F(ReqTraceTest, RetainedSetEvictsOldestBeyondCapacity) {
  rt::SamplerConfig config = keep_nothing();
  config.retain_capacity = 2;
  rt::enable(config);
  std::vector<rt::TraceContext> contexts;
  for (int i = 0; i < 3; ++i) {
    contexts.push_back(rt::mint_request());
    rt::finish_request(contexts.back(), rt::RequestRecord{.ok = false});
  }
  EXPECT_FALSE(rt::is_retained(contexts[0]));
  EXPECT_TRUE(rt::is_retained(contexts[1]));
  EXPECT_TRUE(rt::is_retained(contexts[2]));
  EXPECT_EQ(rt::retained().size(), 2u);
}

TEST_F(ReqTraceTest, JsonlExportShapeAndTruncation) {
  rt::enable(keep_nothing());
  const rt::TraceContext root = rt::mint_request();
  rt::record_span(root, obs::span::kServiceRequest, rt::SpanKind::kRequest, 0, 10);
  rt::record_span(rt::child_of(root), obs::span::kServiceQueueWait,
                  rt::SpanKind::kQueue, 1, 4);
  rt::finish_request(root, rt::RequestRecord{.ok = false});
  const rt::TraceContext second = rt::mint_request();
  rt::record_span(second, obs::span::kServiceRequest, rt::SpanKind::kRequest, 0, 2);
  rt::finish_request(second, rt::RequestRecord{.ok = false});

  const std::vector<std::string> lines = lines_of(rt::jsonl());
  ASSERT_EQ(lines.size(), 2u);
  const obs::Json doc = obs::Json::parse(lines[0]);
  EXPECT_EQ(doc.at("schema").as_string(), "treecode-trace/v1");
  EXPECT_EQ(doc.at("trace_id").as_string(),
            rt::trace_id_hex(root.trace_hi, root.trace_lo));
  EXPECT_EQ(doc.at("reason").as_string(), "error");
  ASSERT_EQ(doc.at("spans").size(), 2u);
  const obs::Json& root_span = doc.at("spans").at(0);
  EXPECT_EQ(root_span.at("name").as_string(), "service.request");
  EXPECT_EQ(root_span.at("kind").as_string(), "request");
  EXPECT_EQ(root_span.at("parent_span_id").as_string(), std::string(16, '0'));
  const obs::Json& queue_span = doc.at("spans").at(1);
  EXPECT_EQ(queue_span.at("kind").as_string(), "queue");
  EXPECT_EQ(queue_span.at("parent_span_id").as_string(),
            root_span.at("span_id").as_string());

  // max_traces keeps the newest lines.
  const std::vector<std::string> tail = lines_of(rt::jsonl(1));
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(obs::Json::parse(tail[0]).at("trace_id").as_string(),
            rt::trace_id_hex(second.trace_hi, second.trace_lo));
}

TEST_F(ReqTraceTest, ChromeExportCarriesSlicesAndFlowEvents) {
  rt::enable(keep_nothing());
  const rt::TraceContext member = rt::mint_request();
  rt::record_span(member, obs::span::kServiceRequest, rt::SpanKind::kRequest, 0, 20);
  const rt::TraceContext batch = rt::mint_request();
  const std::uint64_t flow[] = {member.span_id};
  rt::record_span(batch, obs::span::kServiceBatch, rt::SpanKind::kBatch, 5, 15,
                  flow);
  rt::finish_request(member, rt::RequestRecord{.ok = false}, &batch);
  rt::finish_request(batch, rt::RequestRecord{});

  const obs::Json events = obs::Json::parse(rt::chrome_json());
  bool saw_slice = false;
  bool saw_flow_start = false;
  bool saw_flow_end = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::Json& e = events.at(i);
    const std::string ph = e.at("ph").as_string();
    if (ph == "X" && e.at("name").as_string() == "service.batch") saw_slice = true;
    if (ph == "s" && e.at("id").as_string() == rt::span_id_hex(member.span_id)) {
      saw_flow_start = true;
    }
    if (ph == "f" && e.at("id").as_string() == rt::span_id_hex(member.span_id)) {
      saw_flow_end = true;
    }
  }
  EXPECT_TRUE(saw_slice);
  EXPECT_TRUE(saw_flow_start);
  EXPECT_TRUE(saw_flow_end);
}

TEST_F(ReqTraceTest, RequestScopeMintsRootAndChildAndDefaultFinishes) {
  rt::SamplerConfig config = keep_nothing();
  config.sample_rate = 1.0;
  rt::enable(config);
  rt::TraceContext root_ctx;
  {
    rt::RequestScope scope(obs::span::kServiceRequest);
    ASSERT_TRUE(scope.root());
    root_ctx = scope.context();
    EXPECT_EQ(rt::current().span_id, root_ctx.span_id);
    {
      // A nested scope inside the installed context becomes a child span.
      rt::RequestScope inner(obs::span::kReqEngineEvaluatePlan);
      EXPECT_FALSE(inner.root());
      EXPECT_EQ(inner.context().trace_lo, root_ctx.trace_lo);
      inner.finish(rt::RequestRecord{});
    }
    // No explicit finish: the destructor default-finishes the root.
  }
  EXPECT_FALSE(rt::current().valid());
  EXPECT_TRUE(rt::is_retained(root_ctx));

  // release() hands the tail decision to the caller: nothing is recorded or
  // decided by the destructor afterwards.
  rt::TraceContext released;
  {
    rt::RequestScope scope(obs::span::kServiceRequest);
    released = scope.release();
  }
  EXPECT_FALSE(rt::is_retained(released));
}

TEST_F(ReqTraceTest, WriteJsonlRoundTripsThroughAFile) {
  rt::enable(keep_nothing());
  const rt::TraceContext ctx = rt::mint_request();
  rt::record_span(ctx, obs::span::kServiceRequest, rt::SpanKind::kRequest, 0, 5);
  rt::finish_request(ctx, rt::RequestRecord{.ok = false});
  const std::string path = ::testing::TempDir() + "/reqtrace_export.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(rt::write_jsonl(path));
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(obs::Json::parse(line).at("schema").as_string(), "treecode-trace/v1");
  std::remove(path.c_str());
}

// ---- process timeline ------------------------------------------------------

TEST_F(ReqTraceTest, DisabledTracerRecordsNothing) {
  {
    const rt::PhaseSpan span(obs::span::kTreeBuild);
    const ScopedTimer timer(obs::span::kBhP2m);
  }
  // Enabling afterwards must not surface spans constructed while disabled.
  rt::enable(keep_nothing());
  EXPECT_TRUE(rt::spans().empty());
}

TEST_F(ReqTraceTest, NestedTimelineSpansNest) {
  rt::enable(keep_nothing());
  {
    const rt::PhaseSpan outer(obs::span::kTreeBuild);
    const rt::PhaseSpan inner(obs::span::kBhP2m);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::vector<rt::SpanRecord> spans = rt::spans();
  ASSERT_EQ(spans.size(), 2u);
  const rt::SpanRecord& outer = spans[0];
  const rt::SpanRecord& inner = spans[1];
  EXPECT_STREQ(outer.name, obs::span::kTreeBuild);
  EXPECT_STREQ(inner.name, obs::span::kBhP2m);
  // No request installed: both are timeline spans, and no id was drawn.
  EXPECT_TRUE(outer.timeline());
  EXPECT_TRUE(inner.timeline());
  EXPECT_EQ(outer.span_id, 0u);
  EXPECT_EQ(outer.tid, inner.tid);
  EXPECT_GE(outer.start_ns, 0);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.end_ns, inner.end_ns);
  EXPECT_GE(inner.end_ns - inner.start_ns, 1'000'000);  // slept >= 2 ms
}

TEST_F(ReqTraceTest, ResetDropsStaleSpans) {
  rt::enable(keep_nothing());
  { const rt::PhaseSpan span(obs::span::kTreeBuild); }
  rt::reset();
  rt::enable(keep_nothing());
  { const rt::PhaseSpan span(obs::span::kBhP2m); }
  const std::vector<rt::SpanRecord> spans = rt::spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, obs::span::kBhP2m);
}

TEST_F(ReqTraceTest, WorkerSpansSurviveThreadPoolDestruction) {
  rt::enable(keep_nothing());
  {
    ThreadPool pool(4);
    parallel_for(
        pool, 1'000, 64, [](std::size_t, std::size_t, unsigned) {}, nullptr,
        obs::span::kBhTraverseWorker);
  }  // pool threads join here; their rings must outlive them
  int worker_spans = 0;
  for (const rt::SpanRecord& span : rt::spans()) {
    if (std::string(span.name) != obs::span::kBhTraverseWorker) continue;
    EXPECT_TRUE(span.timeline());
    ++worker_spans;
  }
  EXPECT_EQ(worker_spans, 4);
}

TEST_F(ReqTraceTest, ChromeTimelineIsParseableWithSubMicrosecondTimes) {
  rt::enable(keep_nothing());
  // A quoted, backslashed name must not corrupt the document.
  const char* const name = "test.chrome \"quoted\\name";
  rt::record_timeline_span(name, 1500, 2750);
  const obs::Json events = obs::Json::parse(rt::chrome_json());
  ASSERT_EQ(events.size(), 1u);
  const obs::Json& e = events.at(0);
  EXPECT_EQ(e.at("name").as_string(), name);
  EXPECT_EQ(e.at("ph").as_string(), "X");
  EXPECT_DOUBLE_EQ(e.at("ts").as_double(), 1.5);    // microseconds
  EXPECT_DOUBLE_EQ(e.at("dur").as_double(), 1.25);
  EXPECT_TRUE(e.contains("pid"));
  EXPECT_TRUE(e.contains("tid"));
  EXPECT_FALSE(e.contains("args"));  // a timeline span carries no trace ids
}

TEST_F(ReqTraceTest, ScopedTimerInsideRequestScopeIsRecordedOnce) {
  rt::enable(keep_nothing());
  rt::TraceContext root;
  {
    rt::RequestScope scope(obs::span::kReqEngineEvaluatePlan);
    root = scope.context();
    const ScopedTimer timer(obs::span::kEngineReplay);
  }
  const obs::Json events = obs::Json::parse(rt::chrome_json());
  int replay_slices = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::Json& e = events.at(i);
    if (e.at("name").as_string() != obs::span::kEngineReplay) continue;
    ++replay_slices;
    EXPECT_EQ(e.at("args").at("trace_id").as_string(),
              rt::trace_id_hex(root.trace_hi, root.trace_lo));
  }
  EXPECT_EQ(replay_slices, 1);
}

TEST_F(ReqTraceTest, PoolWidthDoesNotChangeIds) {
  rt::SamplerConfig config = keep_nothing();
  config.sample_rate = 1.0;
  rt::enable(config);
  // The same request around a parallel region, on pools of width 1, 2 and
  // 4. At width 1 the region runs on the caller thread, which holds the
  // request context; the region must still draw no ids and add no spans
  // to the request, or the id stream would depend on the pool width.
  struct Run {
    std::vector<std::uint64_t> ids;
    std::vector<std::string> names;
  };
  const auto run = [&](unsigned width) {
    rt::reset();
    rt::enable(config);
    ThreadPool pool(width);
    {
      rt::RequestScope scope(obs::span::kReqEngineEvaluatePlan);
      parallel_for(
          pool, 256, 16,
          [](std::size_t, std::size_t, unsigned) {
            const rt::PhaseSpan block(obs::span::kBhTraverse);
          },
          nullptr, obs::span::kBhTraverseWorker);
    }
    Run r;
    const rt::TraceContext next = rt::mint_request();
    r.ids = {next.trace_hi, next.trace_lo, next.span_id};
    const std::vector<rt::RetainedTrace> retained = rt::retained();
    EXPECT_EQ(retained.size(), 1u);
    for (const rt::RetainedTrace& trace : retained) {
      r.ids.push_back(trace.trace_lo);
      for (const rt::SpanRecord& span : trace.spans) r.names.emplace_back(span.name);
    }
    return r;
  };
  const Run base = run(1);
  EXPECT_EQ(base.names,
            std::vector<std::string>{obs::span::kReqEngineEvaluatePlan});
  for (const unsigned width : {2u, 4u}) {
    const Run other = run(width);
    EXPECT_EQ(other.ids, base.ids) << "width=" << width;
    EXPECT_EQ(other.names, base.names) << "width=" << width;
  }
}

// ---- request log -----------------------------------------------------------

using TelemetryTest = ReqTraceTest;

rt::RequestRecord sample_record(std::uint64_t key) {
  rt::RequestRecord r;
  r.api = "evaluate_plan";
  r.plan_key = key;
  r.rung = 0;
  r.wall_seconds = 0.001;
  r.targets = 64;
  r.plan_bytes = 1024;
  r.deadline_slack_seconds = std::numeric_limits<double>::quiet_NaN();
  r.audit_max_tightness = 0.5;
  r.threads = 4;
  return r;
}

TEST_F(TelemetryTest, DisabledEmitIsANoOp) {
  EXPECT_FALSE(rt::enabled());
  rt::log_request(sample_record(1));
  EXPECT_EQ(rt::logged_count(), 0u);
  EXPECT_TRUE(rt::records().empty());
}

TEST_F(TelemetryTest, RecordRoundTripsThroughRing) {
  rt::enable();
  rt::log_request(sample_record(0xabcd));
  const std::vector<rt::RequestRecord> records = rt::records();
  ASSERT_EQ(records.size(), 1u);
  const rt::RequestRecord& r = records[0];
  EXPECT_EQ(r.seq, 0u);
  EXPECT_EQ(r.plan_key, 0xabcdu);
  EXPECT_STREQ(r.api, "evaluate_plan");
  EXPECT_EQ(r.rung, 0);
  EXPECT_TRUE(r.ok);
  EXPECT_STREQ(r.outcome_name, "ok");
  EXPECT_EQ(r.targets, 64u);
  EXPECT_EQ(r.threads, 4u);
  EXPECT_TRUE(std::isnan(r.deadline_slack_seconds));
}

TEST_F(TelemetryTest, RingOverflowKeepsNewestRecords) {
  rt::enable();
  const std::uint64_t total = rt::kRequestRingCapacity + 100;
  for (std::uint64_t i = 0; i < total; ++i) rt::log_request(sample_record(i));
  EXPECT_EQ(rt::logged_count(), total);
  const std::vector<rt::RequestRecord> records = rt::records();
  ASSERT_EQ(records.size(), rt::kRequestRingCapacity);
  // Oldest surviving record is exactly `total - capacity`; order is oldest
  // first and contiguous.
  EXPECT_EQ(records.front().seq, total - rt::kRequestRingCapacity);
  EXPECT_EQ(records.back().seq, total - 1);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, records[i - 1].seq + 1);
  }
}

TEST_F(TelemetryTest, EmitFeedsRegistryMetrics) {
  rt::enable();
  rt::log_request(sample_record(1));
  rt::RequestRecord bad = sample_record(2);
  bad.ok = false;
  bad.outcome = 3;
  bad.outcome_name = "deadline_expired";
  rt::log_request(bad);
  const obs::MetricsSnapshot snapshot = obs::registry().snapshot();
  EXPECT_EQ(snapshot.counters.at(obs::metric::kTelemetryRequests), 2u);
  EXPECT_EQ(snapshot.counters.at(obs::metric::kTelemetryErrors), 1u);
  EXPECT_EQ(snapshot.histograms.at(obs::metric::kTelemetryRequestSeconds).total, 2u);
}

TEST_F(TelemetryTest, ToJsonShapeAndSentinels) {
  rt::RequestRecord r = sample_record(0xdeadbeef);
  r.seq = 41;
  const obs::Json j = rt::record_json(r);
  EXPECT_EQ(j.at("schema").as_string(), "treecode-request-record/v3");
  EXPECT_EQ(j.at("api").as_string(), "evaluate_plan");
  EXPECT_EQ(j.at("plan_key").as_string(), "0x00000000deadbeef");
  EXPECT_EQ(j.at("rung").as_int(), 0);
  EXPECT_EQ(j.at("rung_name").as_string(), "replay");
  EXPECT_TRUE(j.at("ok").as_bool());
  // NaN slack (no deadline) must serialize as null, not a bare NaN token
  // (which JSON has no syntax for). The writer maps non-finite to null.
  EXPECT_NE(j.dump(0).find("\"deadline_slack_seconds\":null"), std::string::npos);
  // A record logged outside any trace renders the zero trace id as 32 '0'
  // hex chars; queue wait and scheduler round default to their sentinels.
  EXPECT_EQ(j.at("trace_id").as_string(), std::string(32, '0'));
  EXPECT_EQ(j.at("queue_wait_seconds").as_double(), 0.0);
  EXPECT_EQ(j.at("batch_seq").as_int(), 0);
}

TEST_F(TelemetryTest, ToJsonCarriesTraceFields) {
  rt::RequestRecord r = sample_record(7);
  r.api = "service_serve";
  r.trace_hi = 0x0123456789abcdefULL;
  r.trace_lo = 0xfedcba9876543210ULL;
  r.queue_wait_seconds = 0.25;
  r.batch_seq = 9;
  const obs::Json j = rt::record_json(r);
  EXPECT_EQ(j.at("api").as_string(), "service_serve");
  EXPECT_EQ(j.at("trace_id").as_string(), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(j.at("queue_wait_seconds").as_double(), 0.25);
  EXPECT_EQ(j.at("batch_seq").as_int(), 9);
}

TEST_F(TelemetryTest, SinkWritesOneJsonLinePerRecord) {
  const std::string path = ::testing::TempDir() + "/telemetry_sink.jsonl";
  std::remove(path.c_str());
  rt::enable();
  rt::set_sink(path);
  rt::log_request(sample_record(1));
  rt::log_request(sample_record(2));
  rt::close_sink();
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    const obs::Json j = obs::Json::parse(line);
    EXPECT_EQ(j.at("schema").as_string(), "treecode-request-record/v3");
  }
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, ResetClearsRingCountersAndSink) {
  const std::string path = ::testing::TempDir() + "/telemetry_reset.jsonl";
  rt::enable();
  rt::set_sink(path);
  rt::log_request(sample_record(1));
  EXPECT_EQ(rt::logged_count(), 1u);
  rt::reset();
  EXPECT_FALSE(rt::enabled());
  EXPECT_EQ(rt::logged_count(), 0u);
  EXPECT_TRUE(rt::records().empty());
  // The sink is closed too: records logged after a re-enable reach the
  // ring only.
  rt::enable();
  rt::log_request(sample_record(2));
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace treecode
