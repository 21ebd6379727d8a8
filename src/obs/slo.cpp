#include "obs/slo.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

#include "obs/metric_names.hpp"
#include "obs/openmetrics.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"

namespace treecode::obs::slo {

namespace {

Status measure(const Rule& rule, const MetricsSnapshot& snapshot) {
  Status status;
  switch (rule.kind) {
    case RuleKind::kCounterRatio: {
      const auto num = snapshot.counters.find(rule.metric);
      if (num == snapshot.counters.end()) return status;
      const auto den = snapshot.counters.find(rule.denominator);
      status.evaluated = true;
      status.measured =
          (den == snapshot.counters.end() || den->second == 0)
              ? 0.0
              : static_cast<double>(num->second) / static_cast<double>(den->second);
      break;
    }
    case RuleKind::kHistogramQuantile: {
      const auto it = snapshot.histograms.find(rule.metric);
      if (it == snapshot.histograms.end() || it->second.total == 0) return status;
      status.evaluated = true;
      status.measured = openmetrics::histogram_quantile(it->second, rule.quantile);
      break;
    }
    case RuleKind::kGaugeValue: {
      const auto it = snapshot.gauges.find(rule.metric);
      if (it == snapshot.gauges.end()) return status;
      status.evaluated = true;
      status.measured = it->second;
      break;
    }
    case RuleKind::kGaugeMax: {
      const auto it = snapshot.gauge_maxima.find(rule.metric);
      if (it == snapshot.gauge_maxima.end()) return status;
      status.evaluated = true;
      status.measured = it->second;
      break;
    }
  }
  status.breached = status.evaluated && std::isfinite(status.measured) &&
                    status.measured > rule.threshold;
  return status;
}

}  // namespace

const char* rule_kind_name(RuleKind kind) {
  switch (kind) {
    case RuleKind::kCounterRatio: return "counter_ratio";
    case RuleKind::kHistogramQuantile: return "histogram_quantile";
    case RuleKind::kGaugeValue: return "gauge_value";
    case RuleKind::kGaugeMax: return "gauge_max";
  }
  return "unknown";
}

std::vector<Status> Watchdog::check(const MetricsSnapshot& snapshot) {
  registry().counter(metric::kSloChecks).add(1);
  last_.clear();
  last_.reserve(rules_.size());
  for (const Rule& rule : rules_) {
    Status status = measure(rule, snapshot);
    if (status.breached) {
      ++breaches_;
      registry().counter(metric::kSloBreaches).add(1);
      char line[256];
      std::snprintf(line, sizeof line,
                    "slo breach: %s measured %.6g exceeds threshold %.6g",
                    rule.name.c_str(), status.measured, rule.threshold);
      warn(line);
      // Arm the flight recorder around the breach: start it if idle so the
      // *next* window is captured, stamp the breach itself, and dump if a
      // dump path is configured.
      if (!recorder::enabled()) recorder::start();
      recorder::record(recorder::Category::kCustom, "slo.breach", status.measured);
      recorder::trigger("slo: " + rule.name);
    }
    last_.push_back(status);
  }
  return last_;
}

Json Watchdog::status_json() const {
  Json doc = Json::object();
  Json rules = Json::array();
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const Rule& rule = rules_[i];
    Json item = Json::object();
    item["name"] = rule.name;
    item["kind"] = rule_kind_name(rule.kind);
    item["metric"] = rule.metric;
    if (rule.kind == RuleKind::kCounterRatio) {
      item["denominator"] = rule.denominator;
    }
    if (rule.kind == RuleKind::kHistogramQuantile) {
      item["quantile"] = rule.quantile;
    }
    item["threshold"] = rule.threshold;
    if (i < last_.size()) {
      item["measured"] = last_[i].measured;
      item["breached"] = last_[i].breached;
      item["evaluated"] = last_[i].evaluated;
    }
    rules.push_back(std::move(item));
  }
  doc["rules"] = std::move(rules);
  doc["breaches"] = breaches_;
  return doc;
}

std::vector<Rule> default_engine_rules() {
  Rule error_rate;
  error_rate.name = "engine-error-rate";
  error_rate.kind = RuleKind::kCounterRatio;
  error_rate.metric = metric::kEngineErrors;
  // engine.requests, not telemetry.requests: the engine counts every
  // entry-point call even while tracing (and with it the request log) is
  // off, so the error rate cannot be inflated by an undercounted
  // denominator.
  error_rate.denominator = metric::kEngineRequests;
  error_rate.threshold = 0.01;

  Rule degraded_share;
  degraded_share.name = "engine-degraded-share";
  degraded_share.kind = RuleKind::kCounterRatio;
  degraded_share.metric = metric::kEngineDegradedServes;
  degraded_share.denominator = metric::kEngineRequests;
  degraded_share.threshold = 0.05;

  Rule latency_p99;
  latency_p99.name = "replay-latency-p99";
  latency_p99.kind = RuleKind::kHistogramQuantile;
  latency_p99.metric = metric::kTelemetryRequestSeconds;
  latency_p99.quantile = 0.99;
  latency_p99.threshold = 1.0;

  Rule tightness_ceiling;
  tightness_ceiling.name = "audit-tightness-ceiling";
  tightness_ceiling.kind = RuleKind::kGaugeMax;
  tightness_ceiling.metric = metric::kAuditMaxTightness;
  tightness_ceiling.threshold = 1.0;

  return {std::move(error_rate), std::move(degraded_share),
          std::move(latency_p99), std::move(tightness_ceiling)};
}

}  // namespace treecode::obs::slo
