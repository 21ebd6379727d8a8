// SLO watchdog unit tests: each rule kind's measurement, breach side
// effects (slo.breaches counter, warning, tracer arming), absent
// metrics reported unevaluated, the default engine rule set, and the
// status_json shape.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/reqtrace.hpp"
#include "obs/slo.hpp"
#include "obs/spans.hpp"

namespace treecode {
namespace {

namespace slo = obs::slo;

class SloTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::registry().reset_values();
    obs::reqtrace::reset();
    obs::drain_warnings();
  }
  void TearDown() override {
    obs::registry().reset_values();
    obs::reqtrace::reset();
    obs::drain_warnings();
  }
};

slo::Rule ratio_rule(double threshold) {
  slo::Rule r;
  r.name = "error-rate";
  r.kind = slo::RuleKind::kCounterRatio;
  r.metric = "engine.errors";
  r.denominator = "telemetry.requests";
  r.threshold = threshold;
  return r;
}

TEST_F(SloTest, CounterRatioMeasuresAndBreaches) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters["engine.errors"] = 5;
  snapshot.counters["telemetry.requests"] = 100;
  slo::Watchdog watchdog;
  watchdog.add_rule(ratio_rule(0.01));
  const std::vector<slo::Status> statuses = watchdog.check(snapshot);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_TRUE(statuses[0].evaluated);
  EXPECT_DOUBLE_EQ(statuses[0].measured, 0.05);
  EXPECT_TRUE(statuses[0].breached);
  EXPECT_EQ(watchdog.breaches(), 1u);
}

TEST_F(SloTest, CounterRatioZeroDenominatorIsZero) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters["engine.errors"] = 5;
  snapshot.counters["telemetry.requests"] = 0;
  slo::Watchdog watchdog;
  watchdog.add_rule(ratio_rule(0.01));
  const std::vector<slo::Status> statuses = watchdog.check(snapshot);
  EXPECT_DOUBLE_EQ(statuses[0].measured, 0.0);
  EXPECT_FALSE(statuses[0].breached);
}

TEST_F(SloTest, MissingMetricIsUnevaluatedNotBreached) {
  slo::Watchdog watchdog;
  watchdog.add_rule(ratio_rule(0.01));
  slo::Rule q;
  q.name = "latency";
  q.kind = slo::RuleKind::kHistogramQuantile;
  q.metric = "telemetry.request_seconds";
  q.threshold = 1.0;
  watchdog.add_rule(std::move(q));
  const std::vector<slo::Status> statuses =
      watchdog.check(obs::MetricsSnapshot{});
  ASSERT_EQ(statuses.size(), 2u);
  for (const slo::Status& s : statuses) {
    EXPECT_FALSE(s.evaluated);
    EXPECT_FALSE(s.breached);
  }
  EXPECT_EQ(watchdog.breaches(), 0u);
}

TEST_F(SloTest, HistogramQuantileRule) {
  obs::MetricsSnapshot snapshot;
  obs::HistogramSnapshot h;
  h.bounds = {0.1, 1.0};
  h.counts = {99, 1, 0};
  h.total = 100;
  h.sum = 5.0;
  snapshot.histograms["telemetry.request_seconds"] = h;
  slo::Rule r;
  r.name = "p99";
  r.kind = slo::RuleKind::kHistogramQuantile;
  r.metric = "telemetry.request_seconds";
  r.quantile = 0.5;
  r.threshold = 0.01;  // p50 ~= 0.05 > 0.01 -> breach
  slo::Watchdog watchdog;
  watchdog.add_rule(std::move(r));
  const std::vector<slo::Status> statuses = watchdog.check(snapshot);
  EXPECT_TRUE(statuses[0].evaluated);
  EXPECT_GT(statuses[0].measured, 0.01);
  EXPECT_TRUE(statuses[0].breached);
}

TEST_F(SloTest, GaugeValueAndGaugeMaxRules) {
  obs::MetricsSnapshot snapshot;
  snapshot.gauges["audit.max_tightness"] = 0.4;
  snapshot.gauge_maxima["audit.max_tightness"] = 1.5;
  slo::Rule value;
  value.name = "gauge-now";
  value.kind = slo::RuleKind::kGaugeValue;
  value.metric = "audit.max_tightness";
  value.threshold = 1.0;
  slo::Rule max;
  max.name = "gauge-ever";
  max.kind = slo::RuleKind::kGaugeMax;
  max.metric = "audit.max_tightness";
  max.threshold = 1.0;
  slo::Watchdog watchdog;
  watchdog.add_rule(std::move(value));
  watchdog.add_rule(std::move(max));
  const std::vector<slo::Status> statuses = watchdog.check(snapshot);
  EXPECT_FALSE(statuses[0].breached);  // current value 0.4 <= 1.0
  EXPECT_TRUE(statuses[1].breached);   // running max 1.5 > 1.0
}

TEST_F(SloTest, BreachEmitsWarningCounterAndArmsRecorder) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters["engine.errors"] = 50;
  snapshot.counters["telemetry.requests"] = 100;
  EXPECT_FALSE(obs::reqtrace::enabled());
  slo::Watchdog watchdog;
  watchdog.add_rule(ratio_rule(0.01));
  watchdog.check(snapshot);

  // Counter side effect lands in the live registry, not the checked snapshot.
  const obs::MetricsSnapshot after = obs::registry().snapshot();
  EXPECT_EQ(after.counters.at("slo.breaches"), 1u);
  EXPECT_EQ(after.counters.at("slo.checks"), 1u);

  bool warned = false;
  for (const std::string& w : obs::warnings()) {
    if (w.find("error-rate") != std::string::npos) warned = true;
  }
  EXPECT_TRUE(warned);

  // The breach armed the tracer, which holds the breach event and its
  // measured value.
  EXPECT_TRUE(obs::reqtrace::enabled());
  bool recorded = false;
  for (const auto& e : obs::reqtrace::spans()) {
    if (e.kind == obs::reqtrace::SpanKind::kEvent &&
        std::string(e.name) == obs::span::kSloBreach && e.value == 0.5) {
      recorded = true;
    }
  }
  EXPECT_TRUE(recorded);
}

TEST_F(SloTest, DefaultEngineRulesPassOnHealthySnapshot) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters["engine.requests"] = 1000;
  snapshot.counters["engine.errors"] = 2;
  snapshot.counters["engine.degraded_serves"] = 10;
  obs::HistogramSnapshot h;
  h.bounds = {0.01, 0.1};
  h.counts = {990, 10, 0};
  h.total = 1000;
  h.sum = 6.0;
  snapshot.histograms["telemetry.request_seconds"] = h;
  snapshot.gauge_maxima["audit.max_tightness"] = 0.8;

  slo::Watchdog watchdog;
  for (slo::Rule& rule : slo::default_engine_rules()) {
    watchdog.add_rule(std::move(rule));
  }
  ASSERT_EQ(watchdog.rules().size(), 4u);
  const std::vector<slo::Status> statuses = watchdog.check(snapshot);
  for (const slo::Status& s : statuses) {
    EXPECT_TRUE(s.evaluated);
    EXPECT_FALSE(s.breached);
  }
  EXPECT_EQ(watchdog.breaches(), 0u);
}

TEST_F(SloTest, StatusJsonShape) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters["engine.errors"] = 50;
  snapshot.counters["telemetry.requests"] = 100;
  slo::Watchdog watchdog;
  watchdog.add_rule(ratio_rule(0.01));
  watchdog.check(snapshot);
  const obs::Json j = watchdog.status_json();
  EXPECT_EQ(j.at("breaches").as_int(), 1);
  ASSERT_EQ(j.at("rules").size(), 1u);
  const obs::Json& rule = j.at("rules").at(0);
  EXPECT_EQ(rule.at("name").as_string(), "error-rate");
  EXPECT_EQ(rule.at("kind").as_string(), "counter_ratio");
  EXPECT_EQ(rule.at("metric").as_string(), "engine.errors");
  EXPECT_DOUBLE_EQ(rule.at("measured").as_double(), 0.5);
  EXPECT_TRUE(rule.at("breached").as_bool());
  EXPECT_TRUE(rule.at("evaluated").as_bool());
}

}  // namespace
}  // namespace treecode
