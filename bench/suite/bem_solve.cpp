// bem-solve: the paper's Table-3 application. GMRES(10) solves of the
// first-kind single-layer equation on the propeller, each to a relative
// residual of 1e-6 with a point-charge right-hand side at a seeded exterior
// point. Tree and plan compile are paid once in set-up; the timed phase is
// warm replay plus P2M refresh, so it shows replay-kernel and
// memory-bandwidth changes.

#include <memory>
#include <random>

#include "bem/bem_operator.hpp"
#include "geom/aabb.hpp"
#include "linalg/gmres.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace treecode::suite {

namespace {

/// The operator as GMRES sees it, timing every apply from the outside.
class TimedOperator final : public LinearOperator {
 public:
  TimedOperator(const SingleLayerOperator& op, Tracer& tracer) : op_(op), tracer_(tracer) {}

  [[nodiscard]] std::size_t rows() const override { return op_.rows(); }
  [[nodiscard]] std::size_t cols() const override { return op_.cols(); }

  void apply(std::span<const double> x, std::span<double> y) const override {
    const auto span = tracer_.span("bem.apply", static_cast<std::int64_t>(latencies_.size()));
    const Clock::time_point t0 = Clock::now();
    op_.apply(x, y);
    const double seconds = seconds_between(t0, Clock::now());
    latencies_.push_back(seconds);
    apply_seconds_ += seconds;
    load_balance_ += op_.last_stats().work.load_balance();
  }

  [[nodiscard]] const std::vector<double>& latencies() const { return latencies_; }
  [[nodiscard]] double apply_seconds() const { return apply_seconds_; }
  [[nodiscard]] double mean_load_balance() const {
    return latencies_.empty() ? 0.0 : load_balance_ / static_cast<double>(latencies_.size());
  }

 private:
  const SingleLayerOperator& op_;
  Tracer& tracer_;
  mutable std::vector<double> latencies_;
  mutable double apply_seconds_ = 0.0;
  mutable double load_balance_ = 0.0;
};

/// A point at 2-4 mesh radii from the mesh center, in a seeded direction.
Vec3 exterior_point(const Aabb& box, std::mt19937_64& rng) {
  std::normal_distribution<double> gauss;
  std::uniform_real_distribution<double> scale(2.0, 4.0);
  const Vec3 dir = normalized(Vec3{gauss(rng), gauss(rng), gauss(rng)});
  return box.center() + dir * (scale(rng) * box.bounding_radius());
}

}  // namespace

void run_bem_solve(const Args& args, Tracer& tracer, Report& report) {
  const Propeller prop = make_propeller_mesh(args.smoke ? 600 : 6'000);
  SingleLayerOperator::Options options;
  options.eval = eval_config();
  const std::size_t n = prop.mesh.num_vertices();
  report.details["elements"] = static_cast<std::uint64_t>(prop.mesh.num_triangles());
  report.details["vertices"] = static_cast<std::uint64_t>(n);
  report.details["sources"] = static_cast<std::uint64_t>(prop.quad.size());

  // Set-up: operator construction plus the first apply, which compiles the
  // vertex plan and its basis and builds the first multipoles.
  std::unique_ptr<SingleLayerOperator> op;
  std::vector<double> setup;
  const std::vector<double> ones(n, 1.0);
  std::vector<double> y(n);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    op.reset();
    const Clock::time_point t0 = Clock::now();
    const auto span = tracer.span("setup");
    op = std::make_unique<SingleLayerOperator>(prop.mesh, options);
    op->apply(ones, y);
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  report.set_e2e("setup_s", median(setup), "s");

  const TimedOperator timed(*op, tracer);
  GmresOptions gmres_options;
  gmres_options.restart = 10;
  gmres_options.tolerance = 1e-6;
  gmres_options.max_iterations = 500;
  const Aabb box = bounding_box(prop.mesh.vertices().begin(), prop.mesh.vertices().end());
  std::mt19937_64 rng(mix_seed(args.seed, 1));
  std::vector<double> solve_s;
  std::vector<double> self_s;
  std::vector<double> iterations;
  RegistryDelta delta;
  delta.before = obs::registry().snapshot();
  const Clock::time_point deadline = after(Clock::now(), args.seconds);
  while (Clock::now() < deadline) {
    const std::vector<double> f = op->point_charge_rhs(exterior_point(box, rng), 1.0);
    std::vector<double> sigma(n, 0.0);
    const double applied = timed.apply_seconds();
    const Clock::time_point t0 = Clock::now();
    GmresResult result;
    {
      const auto span = tracer.span("linalg.gmres", static_cast<std::int64_t>(solve_s.size()));
      result = gmres(timed, f, sigma, gmres_options);
    }
    const double seconds = seconds_between(t0, Clock::now());
    if (!result.converged || !(result.relative_residual <= gmres_options.tolerance)) {
      report.fail(std::string("GMRES did not converge: ") + to_string(result.failure_reason));
    }
    solve_s.push_back(seconds);
    self_s.push_back(seconds - (timed.apply_seconds() - applied));
    iterations.push_back(result.iterations);
  }
  delta.after = obs::registry().snapshot();
  report.attempted = timed.latencies().size();
  report.set_op_latencies(timed.latencies());
  report.set_e2e("bytes_per_source",
                 static_cast<double>(op->session().governor().used()) /
                     static_cast<double>(op->num_sources()),
                 "B");
  report.details["solves"] = static_cast<std::uint64_t>(solve_s.size());
  report.details["solve_median_s"] = median(solve_s);

  // Checks: on four seeded densities the compiled apply is bitwise-equal
  // to the uncompiled traversal. rel_error is its error against direct
  // summation at unit density, an input that is the same in every run.
  std::uniform_real_distribution<double> density(0.5, 1.5);
  std::vector<double> compiled(n);
  for (int check = 0; check < 4; ++check) {
    std::vector<double> x(n);
    for (double& v : x) v = density(rng);
    std::vector<double> uncompiled(n);
    op->apply(x, compiled);
    op->apply_uncompiled(x, uncompiled);
    if (!bitwise_equal(compiled, uncompiled)) report.fail("apply != apply_uncompiled (bitwise)");
  }
  std::vector<double> exact(n);
  op->apply(ones, compiled);
  op->apply_direct(ones, exact);
  PooledError error;
  error.add(compiled, exact);
  const double rel = error.value();
  if (!(rel < 1e-2)) report.fail("apply error vs direct too large");
  report.set_e2e("rel_error", rel, "ratio");
  report.set_e2e("peak_rss_mb", peak_rss_mb(), "MB");

  if (!tracer.enabled()) return;
  registry_layers(delta, static_cast<double>(report.attempted), report);
  plan_layers(op->session(), report);
  report.set_layer("parallel.load_balance", timed.mean_load_balance(), "ratio");
  report.set_layer("linalg.gmres_iterations", median(iterations), "count");
  report.set_layer("linalg.self_s", median(self_s), "s");
  report.set_layer("linalg.solve_s", median(solve_s), "s");
  op.reset();  // free the plan before the probes build their own
  probe_vertex_plan(prop, args.seed, args.smoke, tracer, report);
}

}  // namespace treecode::suite
