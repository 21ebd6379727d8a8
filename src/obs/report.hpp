#pragma once

/// \file report.hpp
/// Structured run reports: one JSON document per bench/example run
/// containing the tool's configuration and results, a snapshot of every
/// metric in the registry, the recorded trace spans, and any warnings the
/// library raised — the machine-readable record the perf-trajectory tooling
/// consumes (`BENCH_*.json`), replacing grep-the-console-table.
///
/// Also home of the library's warning channel: subsystems report anomalous
/// but non-fatal conditions (e.g. "the error budget demoted most
/// MAC-accepted interactions") with obs::warn() instead of printing to
/// stderr; warnings land in every report built afterwards and callers can
/// drain them programmatically.

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace treecode::obs {

/// Record a one-line warning. Thread-safe; exact duplicates are collapsed
/// (hot paths may detect the same condition once per evaluation).
void warn(std::string message);

/// Snapshot of all warnings since process start / the last drain.
[[nodiscard]] std::vector<std::string> warnings();

/// Return and clear all warnings (tests use this for isolation).
std::vector<std::string> drain_warnings();

/// Serialize a MetricsSnapshot:
///   {"counters": {...}, "gauges": {...}, "gauge_maxima": {...},
///    "histograms": {name: {"bounds": [...], "counts": [...],
///                          "total": n, "sum": s}},
///    "series": {name: [...]}}
[[nodiscard]] Json metrics_json(const MetricsSnapshot& snapshot);

/// Serialize every readable span of the tracer (obs/reqtrace.hpp), request
/// and timeline alike, in start order:
///   [{"name": ..., "tid": ..., "ts_us": ..., "dur_us": ...}, ...]
/// Empty array when nothing was traced or tracing is compiled out.
[[nodiscard]] Json spans_json();

/// Builder for the report document. Fill config() and results(), then
/// build()/write() — which append the registry snapshot, spans, and
/// warnings at that moment.
class RunReport {
 public:
  /// `tool` names the producing binary (e.g. "bench_table1_structured").
  explicit RunReport(std::string tool);

  /// Mutable "config" section (flag values, sizes, seeds).
  Json& config() { return config_; }
  /// Mutable "results" section (rows, errors, timings — tool-specific).
  Json& results() { return results_; }

  /// Assemble the full document. Schema (validated by
  /// scripts/validate_report.py against scripts/bench_report_schema.json):
  ///   {"schema": "treecode-bench-report/v2", "tool": ..., "config": {...},
  ///    "results": ..., "provenance": {...}, "metrics": {...},
  ///    "spans": [...], "warnings": [...]}
  /// plus an optional "tightness" block summarizing the audit engine's
  /// observed-error/bound ratios when any audit ran this process.
  [[nodiscard]] Json build() const;

  /// build() and write pretty-printed JSON to `path`.
  void write(const std::string& path) const;

 private:
  std::string tool_;
  Json config_ = Json::object();
  Json results_ = Json::object();
};

/// The provenance block stamped into every report: what produced this
/// measurement (git SHA from $TREECODE_GIT_SHA, compiler, build flags,
/// host, UTC timestamp), so a report read later stays attributable.
/// Flight-recorder dumps (v2) embed the same block.
[[nodiscard]] Json provenance_json();

/// The schema identifier stamped into every report. v2 added the required
/// "provenance" block and the optional "tightness" block; validate_report.py
/// accepts v2 only.
inline constexpr const char* kReportSchema = "treecode-bench-report/v2";

}  // namespace treecode::obs
