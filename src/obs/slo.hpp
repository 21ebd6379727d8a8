#pragma once

/// \file slo.hpp
/// Declarative SLO watchdog: named rules evaluated against a
/// MetricsSnapshot, with breach side effects wired into the rest of the
/// obs stack.
///
/// A serving deployment states its objectives as data — "error rate under
/// 1%", "p99 replay latency under a second", "audited tightness never
/// exceeds 1" — and wants drift detected by machinery, not by a human
/// reading dashboards. A Watchdog holds such rules and, on every check():
///  - measures each rule against the snapshot (counter ratios, histogram
///    quantiles via openmetrics::histogram_quantile, gauge values/maxima);
///  - on breach increments `slo.breaches`, emits an obs::warn naming the
///    rule, measured value, and threshold, and *arms the tracer* (enables
///    it with the default sampler if off, and triggers an "slo.breach"
///    event carrying the measured value, which dumps the Chrome export when
///    a dump path is set) so the window after the breach is captured for
///    post-mortem;
///  - returns per-rule Status (measured value, breached, evaluated) for
///    programmatic consumers (treecode-inspect, tests).
///
/// A rule over a metric the snapshot does not contain is reported
/// evaluated=false and never breaches: objectives may be declared for
/// subsystems that have not run yet (no replay => no latency histogram).
///
/// Not thread-safe: check() is called from a monitoring point (bench exit,
/// inspect CLI, a future scrape handler), never from evaluation hot paths.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace treecode::obs::slo {

/// How a rule turns a snapshot into one measured value.
enum class RuleKind : std::uint8_t {
  /// counters[metric] / counters[denominator] (0 when the denominator is 0
  /// or missing). Example: engine.errors per engine.requests.
  kCounterRatio,
  /// histogram_quantile(histograms[metric], quantile).
  kHistogramQuantile,
  /// gauges[metric] (last written value).
  kGaugeValue,
  /// gauge_maxima[metric] (running max since reset).
  kGaugeMax,
};

/// One objective: measured value must stay <= threshold.
struct Rule {
  std::string name;         ///< stable identifier, quoted in warnings
  RuleKind kind = RuleKind::kGaugeValue;
  std::string metric;       ///< registry name (obs::metric constant value)
  std::string denominator;  ///< kCounterRatio only
  double quantile = 0.99;   ///< kHistogramQuantile only
  double threshold = 0.0;
};

/// Outcome of measuring one rule against one snapshot.
struct Status {
  double measured = 0.0;
  bool breached = false;
  bool evaluated = false;  ///< false = the metric was absent from the snapshot
};

/// Holds rules; measures them on demand.
class Watchdog {
 public:
  void add_rule(Rule rule) { rules_.push_back(std::move(rule)); }
  [[nodiscard]] const std::vector<Rule>& rules() const noexcept { return rules_; }

  /// Measure every rule against `snapshot`, applying breach side effects
  /// (slo.breaches counter, obs::warn, tracer arm + trigger).
  /// Also increments slo.checks. Returns one Status per rule, in order.
  std::vector<Status> check(const MetricsSnapshot& snapshot);

  /// Total breaches across all check() calls on this watchdog.
  [[nodiscard]] std::uint64_t breaches() const noexcept { return breaches_; }

  /// The last check()'s outcome as JSON: {"rules": [{name, kind, metric,
  /// threshold, measured, breached, evaluated}], "breaches": n}. Useful for
  /// treecode-inspect and run reports.
  [[nodiscard]] Json status_json() const;

 private:
  std::vector<Rule> rules_;
  std::vector<Status> last_;
  std::uint64_t breaches_ = 0;
};

/// The default objectives for an engine-serving process — the rules the
/// bench harness arms under --slo and treecode-inspect reports:
///   engine-error-rate        engine.errors / engine.requests     <= 0.01
///   engine-degraded-share    engine.degraded_serves / engine.requests <= 0.05
///   replay-latency-p99       p99(telemetry.request_seconds)      <= 1.0 s
///   audit-tightness-ceiling  max(audit.max_tightness)            <= 1.0
[[nodiscard]] std::vector<Rule> default_engine_rules();

/// Human-readable name for a RuleKind ("counter_ratio", ...).
const char* rule_kind_name(RuleKind kind);

}  // namespace treecode::obs::slo
