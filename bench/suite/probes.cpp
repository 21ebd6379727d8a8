#include "probes.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <thread>

#include "core/barnes_hut.hpp"
#include "obs/metric_names.hpp"
#include "obs/spans.hpp"

namespace treecode::suite {

namespace {

/// Every per-layer metric with its unit — the list BENCHMARK.json's
/// per_layer block mirrors (run_bench.py --smoke checks the two agree).
constexpr std::array<std::pair<const char*, const char*>, 37> kLayers{{
    {"tree.build_s", "s"},
    {"tree.nodes", "count"},
    {"tree.height", "count"},
    {"multipole.p2m_s", "s"},
    {"multipole.stored_coefficients", "count"},
    {"core.eval_s", "s"},
    {"core.m2p_count", "count"},
    {"core.p2p_pairs", "count"},
    {"core.multipole_terms", "count"},
    {"core.terms_per_s", "1/s"},
    {"parallel.load_balance", "ratio"},
    {"parallel.speedup_4t", "ratio"},
    {"engine.compile_s", "s"},
    {"engine.plan_hit_ratio", "ratio"},
    {"engine.plan_entries", "count"},
    {"engine.plan_bytes", "B"},
    {"engine.basis_bytes", "B"},
    {"engine.update_charges_s", "s"},
    {"engine.refresh_s", "s"},
    {"engine.nodes_refreshed", "count"},
    {"engine.replay_s", "s"},
    {"engine.replay_terms", "count"},
    {"engine.replay_bytes", "B"},
    {"engine.replay_gbps", "GB/s"},
    {"host.triad_gbps", "GB/s"},
    {"engine.batch_per_rhs_s.k1", "s"},
    {"engine.batch_per_rhs_s.k8", "s"},
    {"service.queue_wait_p50_s", "s"},
    {"service.queue_wait_p99_s", "s"},
    {"service.batch_width_mean", "count"},
    {"service.submit_p99_s", "s"},
    {"service.rejected", "count"},
    {"linalg.gmres_iterations", "count"},
    {"linalg.self_s", "s"},
    {"linalg.solve_s", "s"},
    {"loadgen.lag_p99_s", "s"},
    {"trace.op_p50_s", "s"},
}};

/// Median wall time of `reps` calls of `fn`.
template <typename F>
double median_seconds(int reps, F&& fn) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return median(std::move(times));
}

}  // namespace

void probe_tree(const ParticleSystem& ps, int reps, Tracer& tracer, Report& report) {
  std::size_t nodes = 0;
  int height = 0;
  const double build = median_seconds(reps, [&] {
    const auto span = tracer.span("probe.tree.build");
    const Tree tree(ps);
    nodes = tree.num_nodes();
    height = tree.height();
  });
  report.set_layer("tree.build_s", build, "s");
  report.set_layer("tree.nodes", static_cast<double>(nodes), "count");
  report.set_layer("tree.height", height, "count");
}

void probe_speedup(const Tree& tree, std::span<const Vec3> targets, int reps,
                   Tracer& tracer, Report& report) {
  ThreadPool serial(0);
  ThreadPool wide(kThreads);
  const BarnesHutEvaluator eval(tree, eval_config(), &wide);
  auto traverse = [&](ThreadPool& pool) {
    const auto span = tracer.span("probe.bh.evaluate");
    const EvalResult r = targets.empty() ? eval.evaluate(pool) : eval.evaluate_at(pool, targets);
    (void)r;
  };
  const double one = median_seconds(reps, [&] { traverse(serial); });
  const double many = median_seconds(reps, [&] { traverse(wide); });
  report.set_layer("parallel.speedup_4t", one / many, "ratio");
  report.details["speedup_probe"] = obs::Json::object();
  report.details["speedup_probe"]["threads_1_s"] = one;
  report.details["speedup_probe"]["threads_4_s"] = many;
}

void probe_engine(engine::EvalSession& session, const engine::EvalPlan& plan,
                  const std::vector<std::vector<double>>& columns, int triples,
                  Tracer& tracer, Report& report) {
  std::vector<double> update_s;
  std::vector<double> refreshed_s;  // evaluate after an update: refresh + replay
  std::vector<double> replay_s;     // evaluate on unchanged charges: replay only
  RegistryDelta delta;
  delta.before = obs::registry().snapshot();
  for (int i = 0; i < triples; ++i) {
    const std::vector<double>& column = columns[static_cast<std::size_t>(i) % columns.size()];
    Clock::time_point t0 = Clock::now();
    {
      const auto span = tracer.span("probe.engine.try_update_charges");
      if (!session.try_update_charges(column).ok()) report.fail("probe: update_charges");
    }
    update_s.push_back(seconds_between(t0, Clock::now()));
    for (std::vector<double>* out : {&refreshed_s, &replay_s}) {
      t0 = Clock::now();
      const auto span = tracer.span("probe.engine.try_evaluate");
      if (!session.try_evaluate(plan).ok()) report.fail("probe: evaluate");
      out->push_back(seconds_between(t0, Clock::now()));
    }
  }
  delta.after = obs::registry().snapshot();
  const double replay = median(replay_s);
  report.set_layer("engine.update_charges_s", median(update_s), "s");
  report.set_layer("engine.refresh_s", median(refreshed_s) - replay, "s");
  report.set_layer("engine.replay_s", replay, "s");
  report.set_layer("engine.nodes_refreshed",
                   delta.counter(obs::metric::kEngineNodesRefreshed) / triples, "count");

  // Bytes one replay streams, computed from the plan's own arrays: targets,
  // offsets, entries, basis offsets and basis, the coefficients of every
  // M2P entry's expansion ((p+1)(p+2)/2 complex doubles), and 32 B (a
  // position and a charge) per P2P pair.
  double bytes = static_cast<double>(plan.targets.size() * sizeof(Vec3) +
                                     plan.offsets.size() * sizeof(std::uint64_t) +
                                     plan.entries.size() * sizeof(std::int32_t) +
                                     plan.basis_offset.size() * sizeof(std::uint64_t) +
                                     plan.basis.size() * sizeof(double));
  const std::vector<int>& degree = session.degrees().degree;
  for (const std::int32_t e : plan.entries) {
    if (engine::EvalPlan::is_p2p(e)) continue;
    const auto node = static_cast<std::size_t>(engine::EvalPlan::node_of(e));
    const auto p = static_cast<double>(degree[node]);
    bytes += (p + 1.0) * (p + 2.0) / 2.0 * 16.0;
  }
  bytes += static_cast<double>(plan.stats.p2p_pairs) * 32.0;
  report.set_layer("engine.replay_bytes", bytes, "B");
  report.set_layer("engine.replay_terms", static_cast<double>(plan.stats.multipole_terms),
                   "count");
  report.set_layer("engine.replay_gbps", bytes / replay / 1e9, "GB/s");

  for (const std::size_t k : {std::size_t{1}, std::size_t{8}}) {
    const std::vector<std::span<const double>> batch(
        columns.begin(), columns.begin() + static_cast<std::ptrdiff_t>(k));
    const double per_rhs = median_seconds(5, [&] {
      const auto span = tracer.span("probe.engine.try_evaluate_batch");
      if (!session.try_evaluate_batch(plan, batch).ok()) report.fail("probe: evaluate_batch");
    }) / static_cast<double>(k);
    report.set_layer(k == 1 ? "engine.batch_per_rhs_s.k1" : "engine.batch_per_rhs_s.k8",
                     per_rhs, "s");
  }
}

void compile_layer(Report& report) {
  const RegistryDelta run{obs::MetricsSnapshot{}, obs::registry().snapshot()};
  const double compiles = run.counter(obs::metric::kEnginePlanCompiles);
  report.set_layer("engine.compile_s",
                   compiles > 0 ? run.phase_seconds(obs::span::kEngineCompile) / compiles : 0.0,
                   "s");
}

void plan_layers(const engine::EvalSession& session, Report& report) {
  double entries = 0.0;
  for (const engine::PlanCache::PlanInfo& info : session.cache().contents()) {
    entries += static_cast<double>(info.num_entries);
  }
  report.set_layer("engine.plan_entries", entries, "count");
  report.set_layer("engine.plan_bytes", static_cast<double>(session.cache().bytes()), "B");
  report.set_layer("engine.basis_bytes", static_cast<double>(session.cache().basis_bytes()),
                   "B");
  compile_layer(report);
}

void probe_vertex_plan(const Propeller& prop, std::uint64_t seed, bool smoke,
                       Tracer& tracer, Report& report) {
  const ParticleSystem sources = gauss_particles(prop.quad);
  probe_tree(sources, 3, tracer, report);
  engine::EvalSession session(Tree(sources), eval_config());
  const auto plan = session.try_compile(prop.mesh.vertices());
  if (!plan.ok()) {
    report.fail("probe: compile vertex plan");
    return;
  }
  probe_engine(session, *plan.value(), make_columns(sources, 8, mix_seed(seed, 99)),
               smoke ? 4 : 64, tracer, report);
  probe_speedup(session.tree(), prop.mesh.vertices(), 3, tracer, report);
}

void probe_triad(bool smoke, Tracer& tracer, Report& report) {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const std::size_t llc_bytes = llc > 0 ? static_cast<std::size_t>(llc) : 0;
  const std::size_t cap = smoke ? std::size_t{8} << 20 : std::size_t{256} << 20;
  const std::size_t array_bytes =
      std::clamp(4 * llc_bytes, std::min(std::size_t{64} << 20, cap), cap);
  const std::size_t n = array_bytes / sizeof(double);
  std::vector<double> a(n, 0.0);
  const std::vector<double> b(n, 1.0);
  const std::vector<double> c(n, 2.0);
  const double s = 3.0;
  double best = 0.0;
  for (int sweep = 0; sweep < 5; ++sweep) {
    const auto span = tracer.span("probe.triad");
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        const std::size_t lo = n * t / kThreads;
        const std::size_t hi = n * (t + 1) / kThreads;
        for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
      });
    }
    for (std::thread& w : workers) w.join();
    const double seconds = seconds_between(t0, Clock::now());
    best = std::max(best, 3.0 * static_cast<double>(array_bytes) / seconds / 1e9);
  }
  if (a[n / 2] != 7.0) report.fail("probe: triad result");
  report.set_layer("host.triad_gbps", best, "GB/s");
  report.details["triad"] = obs::Json::object();
  report.details["triad"]["array_bytes"] = static_cast<std::uint64_t>(array_bytes);
  report.details["triad"]["llc_bytes"] = static_cast<std::uint64_t>(llc_bytes);
  report.details["triad"]["arrays_at_least_4x_llc"] = array_bytes >= 4 * llc_bytes;
}

void registry_layers(const RegistryDelta& delta, double ops, Report& report) {
  const double n = std::max(ops, 1.0);
  const double p2m =
      delta.phase_seconds(obs::span::kBhP2m) + delta.phase_seconds(obs::span::kEngineRefresh);
  const double eval = delta.phase_seconds(obs::span::kBhTraverse) +
                      delta.phase_seconds(obs::span::kEngineReplay) +
                      delta.phase_seconds(obs::span::kEngineDirect);
  const double terms = delta.counter(obs::metric::kBhMultipoleTerms) +
                       delta.counter(obs::metric::kEngineMultipoleTerms);
  report.set_layer("multipole.p2m_s", p2m / n, "s");
  report.set_layer("core.eval_s", eval / n, "s");
  report.set_layer("core.m2p_count",
                   (delta.counter(obs::metric::kBhM2pCount) +
                    delta.counter(obs::metric::kEngineM2pCount)) / n,
                   "count");
  report.set_layer("core.p2p_pairs",
                   (delta.counter(obs::metric::kBhP2pPairs) +
                    delta.counter(obs::metric::kEngineP2pPairs)) / n,
                   "count");
  report.set_layer("core.multipole_terms", terms / n, "count");
  report.set_layer("core.terms_per_s", eval > 0.0 ? terms / eval : 0.0, "1/s");
  const double hits = delta.counter(obs::metric::kEnginePlanCacheHits);
  const double lookups = hits + delta.counter(obs::metric::kEnginePlanCacheMisses);
  report.set_layer("engine.plan_hit_ratio", lookups > 0.0 ? hits / lookups : 0.0, "ratio");
}

void finish_layers(Report& report) {
  obs::Json absent = obs::Json::array();
  for (const auto& [name, unit] : kLayers) {
    const auto it = report.layers().find(name);
    if (it == report.layers().end()) {
      report.set_layer(name, 0.0, unit);
      absent.push_back(name);
    } else if (it->second.unit != unit) {
      report.fail(std::string("layer metric ") + name + " has unit " + it->second.unit);
    }
  }
  if (report.layers().size() != kLayers.size()) report.fail("unlisted layer metric set");
  report.details["layers_not_entered"] = std::move(absent);
}

}  // namespace treecode::suite
