#pragma once

/// \file common.hpp
/// Shared machinery for the table/figure reproduction binaries.
///
/// Each bench binary regenerates one table or figure of the paper
/// (see DESIGN.md's per-experiment index). They share this engine: run the
/// "original" (fixed-degree) and "new" (adaptive-degree) Barnes-Hut methods
/// over a particle distribution, measure the paper's quantities (relative
/// error vs direct summation, multipole terms evaluated), and format rows.

#include <functional>
#include <string>
#include <vector>

#include "core/treecode.hpp"
#include "dist/distributions.hpp"
#include "obs/report.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace treecode::bench {

/// Result of one (distribution, method-pair) measurement.
///
/// `err_*` is the 2-norm of the potential error ||a - a'||_2 — the paper's
/// aggregate-error quantity, which grows with the interacted cluster
/// charges (near-linearly in n for the fixed-degree method). `rel_*` is the
/// relative 2-norm for context.
struct PairRow {
  std::size_t n = 0;
  double err_orig = 0.0;
  double err_new = 0.0;
  double rel_orig = 0.0;
  double rel_new = 0.0;
  long long terms_orig = 0;
  long long terms_new = 0;
  double seconds_orig = 0.0;
  double seconds_new = 0.0;
  int max_degree_new = 0;
  /// Audit tightness (0 unless PairConfig::audit_samples > 0): max and mean
  /// observed-error / Theorem-1-bound ratio over the sampled interactions,
  /// per method, plus any bound violations (expected 0).
  double tight_max_orig = 0.0;
  double tight_mean_orig = 0.0;
  double tight_max_new = 0.0;
  double tight_mean_new = 0.0;
  std::uint64_t audit_violations = 0;
};

/// Parameters of a method-pair comparison. The defaults (alpha = 0.4,
/// 16-particle leaves, base degree 4) sit in the paper's operating regime:
/// the adaptive method's term count stays within a small factor (~1.7) of
/// the fixed method while the error improves severalfold.
struct PairConfig {
  double alpha = 0.4;
  int degree = 4;          ///< fixed degree == adaptive base degree
  unsigned threads = 0;    ///< for the evaluation (errors are unaffected)
  std::size_t leaf_capacity = 16;
  std::size_t audit_samples = 0;  ///< bound-tightness audit samples per eval
  std::uint64_t audit_seed = 0;
};

/// Factory for a particle distribution at size n.
using DistFactory = std::function<ParticleSystem(std::size_t n, std::uint64_t seed)>;

/// Run original vs new on one instance; error measured against (threaded)
/// direct summation.
PairRow run_pair(const ParticleSystem& ps, const PairConfig& config);

/// Run a ladder of sizes.
std::vector<PairRow> run_ladder(const DistFactory& factory, const std::vector<std::size_t>& ns,
                                const PairConfig& config, std::uint64_t seed = 1);

/// Render rows in the paper's Table 1 format.
Table table1_format(const std::vector<PairRow>& rows);

/// Standard size ladders (the `--full` flag of each binary switches).
std::vector<std::size_t> default_ladder(bool full);

// ---------------------------------------------------------------------------
// Machine-readable output (--json-out / --trace-out), shared by every bench
// binary. Typical wiring:
//
//   CliFlags flags(argc, argv, bench::with_obs_flags({"n", "full", ...}));
//   const bench::ObsOptions obs = bench::obs_options_from(flags);
//   ... run the experiment ...
//   obs::RunReport report("bench_table1_structured");
//   report.config()["n"] = n;
//   report.results()["table"] = bench::table_json(table);
//   bench::emit_reports(obs, report);

/// Per-iteration statistics of a repeated timing measurement. Single-shot
/// timings on a shared CI runner are noise; EXPERIMENTS.md's timing-hygiene
/// note asks for per-iteration min (least-perturbed run) and median (typical
/// run) over N repeats.
struct RepeatStats {
  int repeats = 0;
  int warmup = 0;          ///< untimed iterations run before the repeats
  double min_seconds = 0.0;
  double median_seconds = 0.0;
  double total_seconds = 0.0;  ///< timed iterations only (excludes warmup)
};

/// Read `--repeat N` (shared flag, see with_obs_flags), clamped to >= 1.
int repeat_from(const CliFlags& flags, int def = 1);

/// Read `--warmup N` (shared flag), clamped to >= 0. Warmup iterations run
/// `fn` but are excluded from the min/median statistics, so cold-cache
/// first runs stop polluting trajectory comparisons.
int warmup_from(const CliFlags& flags, int def = 0);

/// Time `fn` `repeats` times and summarize per-iteration min/median.
RepeatStats time_repeated(int repeats, const std::function<void()>& fn);

/// Same, after `warmup` untimed iterations of `fn`.
RepeatStats time_repeated(int repeats, int warmup, const std::function<void()>& fn);

/// Serialize RepeatStats for a structured report.
obs::Json repeat_stats_json(const RepeatStats& stats);

/// Parsed observability flags for one run.
struct ObsOptions {
  std::string json_out;         ///< structured report path ("" = off)
  /// Chrome trace-event path ("" = off): every span the tracer still holds,
  /// the newest 512 per thread.
  std::string trace_out;
  std::string recorder_out;     ///< flight-recorder snapshot path ("" = off)
  std::string metrics_out;      ///< MetricsSnapshot JSON path ("" = off)
  std::string openmetrics_out;  ///< OpenMetrics exposition path ("" = off)
  std::string telemetry_out;    ///< request-telemetry JSONL path ("" = off)
  /// Retained request-trace JSONL path ("" = off).
  std::string trace_requests_out;
  double trace_sample_rate = 1.0;  ///< healthy request-trace keep rate
  bool telemetry = false;       ///< ring-only telemetry, no JSONL sink
  bool slo = false;             ///< check default engine SLO rules at exit

  [[nodiscard]] bool active() const {
    return !json_out.empty() || !trace_out.empty() || !recorder_out.empty() ||
           !metrics_out.empty() || !openmetrics_out.empty() ||
           !telemetry_out.empty() || !trace_requests_out.empty() ||
           telemetry || slo;
  }
};

/// Append the shared flag names ("json-out", "trace-out", "recorder-out",
/// "metrics-out", "openmetrics-out", "telemetry-out", "trace-requests-out",
/// "trace-sample-rate", "telemetry", "slo", "repeat", "warmup") to a
/// binary's known-flags list.
std::vector<std::string> with_obs_flags(std::vector<std::string> known);

/// Read the shared observability flags. When any output is active, resets
/// registry values (so the report covers this run only) and arms the
/// tracer (obs/reqtrace.hpp) with sampler seed 1 after a reset, so the id
/// stream and the retained-trace set repeat run to run; the healthy-trace
/// keep rate comes from --trace-sample-rate. --telemetry-out additionally
/// enables per-request telemetry with a JSONL sink at that path.
ObsOptions obs_options_from(const CliFlags& flags);

/// Write the requested outputs: the report to json_out, the Chrome
/// trace-event file to trace_out, the retained request traces to
/// trace_requests_out, the metrics snapshot (JSON / OpenMetrics text) to
/// metrics_out / openmetrics_out. Stops trace collection and closes
/// the telemetry sink. With `slo`, checks the default engine SLO rules
/// against the final snapshot first, so the report records `slo.*` counters
/// and any breach warnings. None of these flags enter report.config(), so
/// runs that differ only in observability outputs report the same config.
/// No-op when no flag was given.
void emit_reports(const ObsOptions& opts, const obs::RunReport& report);

/// Serialize a Table as {"headers": [...], "rows": [[...], ...]}. Cells stay
/// the formatted strings the console shows.
obs::Json table_json(const Table& t);

/// Serialize PairRows with full numeric precision (the console table rounds).
obs::Json pair_rows_json(const std::vector<PairRow>& rows);

}  // namespace treecode::bench
