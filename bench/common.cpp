#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "obs/openmetrics.hpp"
#include "obs/recorder.hpp"
#include "obs/reqtrace.hpp"
#include "obs/slo.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace treecode::bench {

namespace {
double abs_error_2norm(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}
}  // namespace

PairRow run_pair(const ParticleSystem& ps, const PairConfig& config) {
  PairRow row;
  row.n = ps.size();
  const Tree tree(ps, {.leaf_capacity = config.leaf_capacity});
  const EvalResult exact = evaluate_direct(ps, config.threads ? config.threads : 4);

  EvalConfig cfg;
  cfg.alpha = config.alpha;
  cfg.degree = config.degree;
  cfg.threads = config.threads;
  cfg.audit_samples = config.audit_samples;
  cfg.audit_seed = config.audit_seed;
  {
    Timer t;
    const EvalResult r = evaluate_barnes_hut(tree, cfg);
    row.seconds_orig = t.seconds();
    row.err_orig = abs_error_2norm(exact.potential, r.potential);
    row.rel_orig = relative_error_2norm(exact.potential, r.potential);
    row.terms_orig = static_cast<long long>(r.stats.multipole_terms);
    row.tight_max_orig = r.stats.audit_max_tightness;
    row.tight_mean_orig = r.stats.audit_mean_tightness;
    row.audit_violations += r.stats.audit_bound_violations;
  }
  cfg.mode = DegreeMode::kAdaptive;
  {
    Timer t;
    const EvalResult r = evaluate_barnes_hut(tree, cfg);
    row.seconds_new = t.seconds();
    row.err_new = abs_error_2norm(exact.potential, r.potential);
    row.rel_new = relative_error_2norm(exact.potential, r.potential);
    row.terms_new = static_cast<long long>(r.stats.multipole_terms);
    row.max_degree_new = r.stats.max_degree_used;
    row.tight_max_new = r.stats.audit_max_tightness;
    row.tight_mean_new = r.stats.audit_mean_tightness;
    row.audit_violations += r.stats.audit_bound_violations;
  }
  return row;
}

std::vector<PairRow> run_ladder(const DistFactory& factory, const std::vector<std::size_t>& ns,
                                const PairConfig& config, std::uint64_t seed) {
  std::vector<PairRow> rows;
  rows.reserve(ns.size());
  for (std::size_t n : ns) {
    rows.push_back(run_pair(factory(n, seed), config));
  }
  return rows;
}

Table table1_format(const std::vector<PairRow>& rows) {
  Table t({"n", "err(orig)", "err(new)", "rel(orig)", "rel(new)", "Terms(orig)",
           "Terms(new)", "ratio"});
  for (const PairRow& r : rows) {
    t.add_row({fmt_count(static_cast<long long>(r.n)), fmt_sci(r.err_orig, 2),
               fmt_sci(r.err_new, 2), fmt_sci(r.rel_orig, 2), fmt_sci(r.rel_new, 2),
               fmt_millions(r.terms_orig), fmt_millions(r.terms_new),
               fmt_fixed(static_cast<double>(r.terms_new) /
                             static_cast<double>(r.terms_orig ? r.terms_orig : 1),
                         2)});
  }
  return t;
}

std::vector<std::size_t> default_ladder(bool full) {
  if (full) return {4'000, 8'000, 16'000, 32'000, 64'000, 128'000};
  return {4'000, 8'000, 16'000, 32'000};
}

int repeat_from(const CliFlags& flags, int def) {
  const auto n = static_cast<int>(flags.get_int("repeat", def));
  return n < 1 ? 1 : n;
}

int warmup_from(const CliFlags& flags, int def) {
  const auto n = static_cast<int>(flags.get_int("warmup", def));
  return n < 0 ? 0 : n;
}

RepeatStats time_repeated(int repeats, const std::function<void()>& fn) {
  return time_repeated(repeats, 0, fn);
}

RepeatStats time_repeated(int repeats, int warmup, const std::function<void()>& fn) {
  RepeatStats stats;
  stats.repeats = repeats < 1 ? 1 : repeats;
  stats.warmup = warmup < 0 ? 0 : warmup;
  for (int i = 0; i < stats.warmup; ++i) fn();
  std::vector<double> seconds(static_cast<std::size_t>(stats.repeats), 0.0);
  for (double& s : seconds) {
    Timer t;
    fn();
    s = t.seconds();
    stats.total_seconds += s;
  }
  std::sort(seconds.begin(), seconds.end());
  stats.min_seconds = seconds.front();
  const std::size_t mid = seconds.size() / 2;
  stats.median_seconds = seconds.size() % 2 == 1
                             ? seconds[mid]
                             : 0.5 * (seconds[mid - 1] + seconds[mid]);
  return stats;
}

obs::Json repeat_stats_json(const RepeatStats& stats) {
  obs::Json j = obs::Json::object();
  j["repeats"] = stats.repeats;
  j["warmup"] = stats.warmup;
  j["min_seconds"] = stats.min_seconds;
  j["median_seconds"] = stats.median_seconds;
  j["total_seconds"] = stats.total_seconds;
  return j;
}

std::vector<std::string> with_obs_flags(std::vector<std::string> known) {
  known.emplace_back("json-out");
  known.emplace_back("trace-out");
  known.emplace_back("recorder-out");
  known.emplace_back("metrics-out");
  known.emplace_back("openmetrics-out");
  known.emplace_back("telemetry-out");
  known.emplace_back("trace-requests-out");
  known.emplace_back("trace-sample-rate");
  known.emplace_back("slo");
  known.emplace_back("repeat");
  known.emplace_back("warmup");
  return known;
}

ObsOptions obs_options_from(const CliFlags& flags) {
  ObsOptions opts;
  opts.json_out = flags.get_string("json-out", "");
  opts.trace_out = flags.get_string("trace-out", "");
  opts.recorder_out = flags.get_string("recorder-out", "");
  opts.metrics_out = flags.get_string("metrics-out", "");
  opts.openmetrics_out = flags.get_string("openmetrics-out", "");
  opts.telemetry_out = flags.get_string("telemetry-out", "");
  opts.trace_requests_out = flags.get_string("trace-requests-out", "");
  opts.trace_sample_rate = flags.get_double("trace-sample-rate", 1.0);
  opts.slo = flags.get_bool("slo");
  if (opts.active()) {
    // The registry is process-global: zero whatever earlier warm-up recorded
    // so the emitted report describes this run alone.
    obs::registry().reset_values();
    obs::drain_warnings();
    // Seed 1 after a reset: the id stream — and so the retained-trace set —
    // is reproducible run to run for the same workload.
    obs::reqtrace::reset();
    obs::reqtrace::SamplerConfig config;
    config.seed = 1;
    config.sample_rate = opts.trace_sample_rate;
    obs::reqtrace::enable(config);
    if (!opts.telemetry_out.empty()) obs::reqtrace::set_sink(opts.telemetry_out);
  }
  if (!opts.recorder_out.empty()) {
    obs::recorder::reset();
    obs::recorder::set_dump_path(opts.recorder_out);
    obs::recorder::start();
  }
  return opts;
}

void emit_reports(const ObsOptions& opts, const obs::RunReport& report) {
  if (!opts.active()) return;
  obs::reqtrace::disable();
  if (!opts.recorder_out.empty()) {
    obs::recorder::stop();
    obs::recorder::dump(opts.recorder_out, "run complete");
  }
  obs::reqtrace::close_sink();
  if (!opts.trace_requests_out.empty()) {
    obs::reqtrace::write_jsonl(opts.trace_requests_out);
  }
  if (opts.slo) {
    // Before the report/metric dumps: the check's slo.* counters and any
    // breach warnings belong in the same snapshot the outputs capture.
    obs::slo::Watchdog watchdog;
    for (obs::slo::Rule& rule : obs::slo::default_engine_rules()) {
      watchdog.add_rule(std::move(rule));
    }
    watchdog.check(obs::registry().snapshot());
  }
  if (!opts.json_out.empty()) report.write(opts.json_out);
  if (!opts.trace_out.empty()) obs::reqtrace::write_chrome_json(opts.trace_out);
  if (!opts.metrics_out.empty()) {
    obs::write_json_file(opts.metrics_out,
                         obs::metrics_json(obs::registry().snapshot()));
  }
  if (!opts.openmetrics_out.empty()) {
    obs::openmetrics::write(opts.openmetrics_out, obs::registry().snapshot());
  }
}

obs::Json table_json(const Table& t) {
  obs::Json j = obs::Json::object();
  obs::Json headers = obs::Json::array();
  for (const std::string& h : t.headers()) headers.push_back(h);
  j["headers"] = std::move(headers);
  obs::Json rows = obs::Json::array();
  for (const auto& row : t.data()) {
    obs::Json cells = obs::Json::array();
    for (const std::string& cell : row) cells.push_back(cell);
    rows.push_back(std::move(cells));
  }
  j["rows"] = std::move(rows);
  return j;
}

obs::Json pair_rows_json(const std::vector<PairRow>& rows) {
  obs::Json arr = obs::Json::array();
  for (const PairRow& r : rows) {
    obs::Json j = obs::Json::object();
    j["n"] = r.n;
    j["err_orig"] = r.err_orig;
    j["err_new"] = r.err_new;
    j["rel_orig"] = r.rel_orig;
    j["rel_new"] = r.rel_new;
    j["terms_orig"] = static_cast<std::int64_t>(r.terms_orig);
    j["terms_new"] = static_cast<std::int64_t>(r.terms_new);
    j["seconds_orig"] = r.seconds_orig;
    j["seconds_new"] = r.seconds_new;
    j["max_degree_new"] = r.max_degree_new;
    j["tight_max_orig"] = r.tight_max_orig;
    j["tight_mean_orig"] = r.tight_mean_orig;
    j["tight_max_new"] = r.tight_max_new;
    j["tight_mean_new"] = r.tight_mean_new;
    j["audit_violations"] = r.audit_violations;
    arr.push_back(std::move(j));
  }
  return arr;
}

}  // namespace treecode::bench
