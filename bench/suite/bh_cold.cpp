// bh-cold: one-shot adaptive Barnes-Hut on overlapped Gaussians, the
// paper's non-uniform distribution. Every op builds the tree, constructs
// the evaluator (P2M) and traverses, all fresh: no plan, basis or cache is
// involved, so the op is dominated by the alpha-MAC traversal with
// on-the-fly M2P. It shows traversal and kernel changes, stays unmoved by
// an engine-only change, and guards the rule that cold one-shot time must
// not regress.
//
// A single instance's cost moves by about 10% with its positions, so a run
// cycles through sixteen fixed instances; the op quantiles then describe
// the distribution rather than one draw. The run seed draws the charges
// (each particle's unit charge times a density in [0.5, 1.5]), which move
// the adaptive degrees and so the work only slightly.

#include <algorithm>
#include <cmath>
#include <optional>
#include <tuple>

#include "core/barnes_hut.hpp"
#include "core/direct.hpp"
#include "dist/distributions.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace treecode::suite {

void run_bh_cold(const Args& args, Tracer& tracer, Report& report) {
  const std::size_t n = args.smoke ? 1'500 : 6'000;
  const std::size_t instances = args.smoke ? 2 : 16;
  std::vector<ParticleSystem> inputs;
  for (std::size_t j = 0; j < instances; ++j) {
    const ParticleSystem shape = dist::overlapped_gaussians(n, 8, mix_seed(kGeometrySeed, j));
    inputs.emplace_back(shape.positions(), make_columns(shape, 1, mix_seed(args.seed, j))[0]);
  }
  report.details["particles"] = static_cast<std::uint64_t>(n);
  report.details["instances"] = static_cast<std::uint64_t>(instances);

  const EvalConfig config = eval_config();
  ThreadPool pool(kThreads);
  auto cold_op = [&](const ParticleSystem& ps, const EvalConfig& cfg, std::int64_t op) {
    const auto span = tracer.span("bh.op", op);
    const Tree tree = [&] {
      const auto s = tracer.span("tree.build", op);
      return Tree(ps);
    }();
    std::optional<BarnesHutEvaluator> eval;
    {
      const auto s = tracer.span("bh.construct", op);
      eval.emplace(tree, cfg, &pool);
    }
    const auto s = tracer.span("bh.evaluate", op);
    return std::make_pair(eval->evaluate(pool), eval->stored_coefficients());
  };

  // Set-up: the first cold op on every instance, whose potentials are the
  // bitwise references for every later op on it.
  std::vector<std::vector<double>> reference;
  std::vector<double> setup;
  for (const ParticleSystem& ps : inputs) {
    const Clock::time_point t0 = Clock::now();
    reference.push_back(cold_op(ps, config, -1).first.potential);
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  report.set_e2e("setup_s", median(setup), "s");

  std::vector<double> latencies;
  double load_balance = 0.0;
  RegistryDelta delta;
  delta.before = obs::registry().snapshot();
  const Clock::time_point deadline = after(Clock::now(), args.seconds);
  for (std::size_t op = 0; Clock::now() < deadline; ++op) {
    const std::size_t j = op % instances;
    const Clock::time_point t0 = Clock::now();
    const EvalResult r = cold_op(inputs[j], config, static_cast<std::int64_t>(op)).first;
    latencies.push_back(seconds_between(t0, Clock::now()));
    load_balance += r.stats.work.load_balance();
    if (!bitwise_equal(r.potential, reference[j])) {
      report.fail("op " + std::to_string(op) + " differs from its instance's reference");
    }
  }
  delta.after = obs::registry().snapshot();
  report.attempted = latencies.size();
  report.set_op_latencies(latencies);

  // Checks: evaluate once more with Theorem-1 bounds tracked and compare
  // every particle against direct summation; the certificate
  // |err_i| <= error_bound_i must hold everywhere, up to direct-sum
  // roundoff. On every instance with the run's charges, the potentials
  // must not move from the reference. On the first four instances at unit
  // charge, an input that is the same in every run, rel_error is the error
  // pooled over their particles.
  EvalConfig bounded = config;
  bounded.track_error_bounds = true;
  auto certified = [&](const ParticleSystem& ps, std::size_t j) {
    const auto [r, stored] = cold_op(ps, bounded, -1);
    const EvalResult exact = evaluate_direct(ps, kThreads);
    double max_phi = 0.0;
    for (const double v : exact.potential) max_phi = std::max(max_phi, std::abs(v));
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const double err = std::abs(r.potential[i] - exact.potential[i]);
      if (err > r.error_bound[i] * (1.0 + 1e-9) + 1e-11 * max_phi) {
        report.fail("Theorem-1 certificate violated at instance " + std::to_string(j) +
                    " particle " + std::to_string(i));
      }
    }
    return std::make_tuple(r.potential, exact.potential, stored);
  };
  double coefficients = 0.0;
  for (std::size_t j = 0; j < instances; ++j) {
    const auto [potential, exact, stored] = certified(inputs[j], j);
    coefficients += static_cast<double>(stored);
    if (!bitwise_equal(potential, reference[j])) {
      report.fail("bound tracking changed the potentials");
    }
  }
  PooledError error;
  for (std::size_t j = 0; j < std::min<std::size_t>(4, instances); ++j) {
    const ParticleSystem unit(inputs[j].positions(), std::vector<double>(n, 1.0));
    const auto [potential, exact, stored] = certified(unit, j);
    error.add(potential, exact);
  }
  const double rel = error.value();
  if (!(rel < 1e-2)) report.fail("error vs direct too large");
  report.set_e2e("rel_error", rel, "ratio");
  // The evaluator's durable state is its multipole expansions.
  report.set_e2e("bytes_per_source",
                 coefficients * 16.0 / static_cast<double>(instances * n), "B");
  report.set_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.details["certificate_samples"] =
      static_cast<std::uint64_t>(n * (instances + std::min<std::size_t>(4, instances)));

  if (!tracer.enabled()) return;
  registry_layers(delta, static_cast<double>(report.attempted), report);
  report.set_layer("multipole.stored_coefficients", coefficients / static_cast<double>(instances),
                   "count");
  report.set_layer("parallel.load_balance",
                   load_balance / static_cast<double>(std::max<std::size_t>(latencies.size(), 1)),
                   "ratio");
  probe_tree(inputs[0], 3, tracer, report);
  probe_speedup(Tree(inputs[0]), {}, 3, tracer, report);
}

}  // namespace treecode::suite
