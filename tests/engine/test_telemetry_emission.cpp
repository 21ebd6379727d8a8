// EvalSession request records: every try_* entry point finishes one
// obs::reqtrace RequestRecord at exit with the right api, plan key, serving
// rung, outcome, and session facts (cache bytes, deadline slack, thread
// width) — on failures as much as successes — under its root span's trace
// id and inside that span on the tracer's one clock. Healthy replays are
// sampled, never kept as degraded.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/treecode.hpp"
#include "dist/distributions.hpp"
#include "engine/eval_session.hpp"
#include "obs/reqtrace.hpp"
#include "obs/spans.hpp"

namespace treecode {
namespace {

namespace rt = obs::reqtrace;

class EvalSessionTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rt::reset();
    rt::enable();  // sample_rate 0: only the always-keep rules retain
  }
  void TearDown() override { rt::reset(); }
};

EvalConfig base_config() {
  EvalConfig cfg;
  cfg.alpha = 0.5;
  cfg.degree = 4;
  cfg.threads = 2;
  return cfg;
}

TEST_F(EvalSessionTelemetryTest, WarmReplayLoopEmitsOneRecordPerCall) {
  const ParticleSystem ps = dist::uniform_cube(1200, 9);
  engine::EvalSession session(Tree(ps, TreeConfig{.leaf_capacity = 8}),
                              base_config());

  auto plan = session.try_compile_self();
  ASSERT_TRUE(plan.ok());
  std::vector<double> charges(session.sorted_charges().begin(),
                              session.sorted_charges().end());
  for (double& q : charges) q = -q;
  ASSERT_TRUE(session.try_update_charges_sorted(charges).ok());
  ASSERT_TRUE(session.try_evaluate(*plan.value()).ok());

  const std::vector<rt::RequestRecord> records = rt::records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(rt::logged_count(), 3u);

  const rt::RequestRecord& compile = records[0];
  EXPECT_STREQ(compile.api, "compile_self");
  EXPECT_TRUE(compile.ok);
  EXPECT_EQ(compile.plan_key, plan.value()->key);
  EXPECT_NE(compile.plan_key, 0u);
  EXPECT_EQ(compile.rung, -1);
  EXPECT_GT(compile.plan_bytes, 0u);
  EXPECT_EQ(compile.threads, 2u);

  const rt::RequestRecord& update = records[1];
  EXPECT_STREQ(update.api, "update_charges_sorted");
  EXPECT_TRUE(update.ok);
  EXPECT_EQ(update.rung, -1);

  const rt::RequestRecord& eval = records[2];
  EXPECT_STREQ(eval.api, "evaluate_plan");
  EXPECT_TRUE(eval.ok);
  EXPECT_EQ(eval.plan_key, plan.value()->key);
  EXPECT_EQ(eval.rung, static_cast<std::int8_t>(ServeRung::kReplay));
  EXPECT_EQ(eval.targets, ps.size());
  EXPECT_GE(eval.wall_seconds, 0.0);
  // No deadline configured: slack is the NaN sentinel.
  EXPECT_TRUE(std::isnan(eval.deadline_slack_seconds));
}

TEST_F(EvalSessionTelemetryTest, FailedRequestEmitsErrorRecord) {
  const ParticleSystem ps = dist::uniform_cube(600, 3);
  engine::EvalSession session(Tree(ps, TreeConfig{.leaf_capacity = 8}),
                              base_config());
  // Wrong charge count: the update must fail but still log its record.
  const std::vector<double> wrong(ps.size() + 1, 1.0);
  ASSERT_FALSE(session.try_update_charges_sorted(wrong).ok());

  const std::vector<rt::RequestRecord> records = rt::records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_STREQ(records[0].api, "update_charges_sorted");
  EXPECT_FALSE(records[0].ok);
  EXPECT_NE(records[0].outcome, 0);
  EXPECT_STRNE(records[0].outcome_name, "ok");
}

TEST_F(EvalSessionTelemetryTest, DeadlineSlackRecordedWhenDeadlineArmed) {
  const ParticleSystem ps = dist::uniform_cube(600, 5);
  EvalConfig cfg = base_config();
  cfg.deadline_seconds = 30.0;  // generous: must not expire, only be recorded
  engine::EvalSession session(Tree(ps, TreeConfig{.leaf_capacity = 8}), cfg);
  ASSERT_TRUE(session.try_compile_self().ok());

  const std::vector<rt::RequestRecord> records = rt::records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(std::isnan(records[0].deadline_slack_seconds));
  EXPECT_GT(records[0].deadline_slack_seconds, 0.0);
  EXPECT_LT(records[0].deadline_slack_seconds, 30.0);
}

TEST_F(EvalSessionTelemetryTest, DisabledTelemetryEmitsNothing) {
  rt::reset();  // disabled
  const ParticleSystem ps = dist::uniform_cube(600, 7);
  engine::EvalSession session(Tree(ps, TreeConfig{.leaf_capacity = 8}),
                              base_config());
  ASSERT_TRUE(session.try_compile_self().ok());
  EXPECT_EQ(rt::logged_count(), 0u);
}

TEST_F(EvalSessionTelemetryTest, RecordSharesTraceIdAndClockWithItsRootSpan) {
  const ParticleSystem ps = dist::uniform_cube(600, 11);
  engine::EvalSession session(Tree(ps, TreeConfig{.leaf_capacity = 8}),
                              base_config());
  ASSERT_TRUE(session.try_compile_self().ok());

  const std::vector<rt::RequestRecord> records = rt::records();
  ASSERT_EQ(records.size(), 1u);
  const rt::RequestRecord& record = records[0];
  ASSERT_NE(record.trace_hi | record.trace_lo, 0u);
  const std::vector<rt::SpanRecord> spans = rt::spans();
  const rt::SpanRecord* root = nullptr;
  for (const rt::SpanRecord& span : spans) {
    if (span.parent_span_id == 0 && !span.timeline()) root = &span;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_STREQ(root->name, obs::span::kReqEngineCompileSelf);
  EXPECT_EQ(root->kind, rt::SpanKind::kRequest);
  EXPECT_EQ(root->trace_hi, record.trace_hi);
  EXPECT_EQ(root->trace_lo, record.trace_lo);
  // Microseconds and nanoseconds since the same enable().
  EXPECT_GE(record.ts_us, root->start_ns / 1000);
  EXPECT_LE(record.ts_us, root->end_ns / 1000);
}

TEST_F(EvalSessionTelemetryTest, HealthyGradientReplaysAreNotKeptAsDegraded) {
  // Every replay of a gradient plan serves at the replay rung: healthy. At
  // sample_rate 0 not one trace may be retained.
  const ParticleSystem ps = dist::uniform_cube(600, 13);
  EvalConfig cfg = base_config();
  cfg.compute_gradient = true;
  engine::EvalSession session(Tree(ps, TreeConfig{.leaf_capacity = 8}), cfg);
  auto plan = session.try_compile_self();
  ASSERT_TRUE(plan.ok());
  constexpr int kEvals = 6;
  for (int i = 0; i < kEvals; ++i) ASSERT_TRUE(session.try_evaluate(*plan.value()).ok());

  int replays = 0;
  for (const rt::RequestRecord& record : rt::records()) {
    if (std::string(record.api) != "evaluate_plan") continue;
    EXPECT_EQ(record.rung, static_cast<std::int8_t>(ServeRung::kReplay));
    ++replays;
  }
  EXPECT_EQ(replays, kEvals);
  EXPECT_TRUE(rt::retained().empty());
}

}  // namespace
}  // namespace treecode
