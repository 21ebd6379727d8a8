// Multi-RHS serving throughput on the warm Table-3 BEM plan: per-RHS
// replay cost vs batch width, and end-to-end service requests/sec.
//
// A warm single-RHS replay walks the frozen entry stream once per request.
// The batched replay (EvalSession::try_evaluate_batch) walks it once per
// column *block*, amortizing entry decode, node lookup, and multipole
// loads over up to 8 simultaneous charge vectors — the same shape a
// multi-tenant service sees when a scheduler coalesces queued requests.
// This bench measures, on the propeller BEM geometry:
//
//   * per-RHS seconds at k in {1, 2, 4, 8} on the warm vertex plan
//     (direct engine calls, no service overhead) — the headline
//     `speedup_per_rhs_k8` is k=1 per-RHS over k=8 per-RHS;
//   * service requests/sec with concurrent submitters, coalescing on
//     (max_batch_width = 8) vs serialized (max_batch_width = 1);
//
// and verifies every batch column bitwise against its single-RHS replay —
// a mismatch fails the bench (exit 1).
//
//   ./bench_service_throughput [--elements 6k] [--alpha 0.5] [--threads 4]
//       [--repeat 5] [--warmup 1] [--requests 64] [--submitters 4]
//       [--json-out report.json]

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bem/meshgen.hpp"
#include "bem/quadrature.hpp"
#include "common.hpp"
#include "engine/eval_session.hpp"
#include "service/eval_service.hpp"
#include "tree/octree.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace treecode;

/// Gauss-point particle system for the mesh — the same tree input
/// SingleLayerOperator uses.
ParticleSystem gauss_particles(const std::vector<MeshQuadPoint>& points) {
  std::vector<Vec3> positions;
  std::vector<double> charges;
  positions.reserve(points.size());
  charges.reserve(points.size());
  for (const MeshQuadPoint& p : points) {
    positions.push_back(p.position);
    charges.push_back(p.weight);
  }
  return ParticleSystem(std::move(positions), std::move(charges));
}

/// Deterministic, column-distinct charge vectors.
std::vector<std::vector<double>> make_columns(std::size_t k, std::size_t n) {
  std::vector<std::vector<double>> columns(k, std::vector<double>(n));
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      columns[c][i] = 1.0 + 0.5 * std::sin(0.37 * static_cast<double>(i) +
                                           0.61 * static_cast<double>(c));
    }
  }
  return columns;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace treecode;
  try {
    const CliFlags flags(
        argc, argv,
        bench::with_obs_flags(
            {"elements", "alpha", "threads", "requests", "submitters"}));
    const bench::ObsOptions obs_opts = bench::obs_options_from(flags);
    obs::RunReport run_report("bench_service_throughput");
    const auto elements = static_cast<std::size_t>(flags.get_int("elements", 6'000));
    const double alpha = flags.get_double("alpha", 0.5);
    const auto threads = static_cast<unsigned>(flags.get_int("threads", 4));
    const int repeats = bench::repeat_from(flags, 5);
    const int warmup = bench::warmup_from(flags, 1);
    const int requests = static_cast<int>(flags.get_int("requests", 64));
    const int submitters = static_cast<int>(flags.get_int("submitters", 4));

    std::printf("== Batched multi-RHS replay on the Table-3 BEM plan ==\n\n");
    const LatLonSize ls = latlon_for_triangles(elements);
    const TriangleMesh mesh = make_propeller(ls.n_lat, ls.n_lon);
    const std::vector<MeshQuadPoint> quad =
        quadrature_points(mesh, triangle_rule(6));
    std::printf("propeller stand-in: %zu elements, %zu vertices, %zu Gauss sources\n",
                mesh.num_triangles(), mesh.num_vertices(), quad.size());

    EvalConfig cfg;
    cfg.alpha = alpha;
    cfg.degree = 4;
    cfg.mode = DegreeMode::kAdaptive;
    cfg.threads = threads;
    engine::EvalSession session(Tree(gauss_particles(quad), TreeConfig{}), cfg);
    auto plan = session.try_compile(mesh.vertices()).value_or_throw();
    const std::size_t np = session.tree().source_size();

    const std::vector<std::vector<double>> columns = make_columns(8, np);

    // Single-RHS references for the bitwise check.
    std::vector<std::vector<double>> reference(8);
    for (std::size_t c = 0; c < 8; ++c) {
      session.try_update_charges(columns[c]).value_or_throw();
      reference[c] = session.try_evaluate(*plan).value_or_throw().potential;
    }

    bool bitwise_equal = true;
    Table t({"k", "batch median(s)", "per-RHS(s)", "per-RHS speedup"});
    obs::Json widths = obs::Json::array();
    double per_rhs_k1 = 0.0;
    double per_rhs_k8 = 0.0;
    for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                std::size_t{8}}) {
      std::vector<std::span<const double>> cols;
      for (std::size_t c = 0; c < k; ++c) cols.emplace_back(columns[c]);
      std::vector<EvalResult> results;
      const bench::RepeatStats stats = bench::time_repeated(repeats, warmup, [&] {
        results = session.try_evaluate_batch(*plan, cols).value_or_throw();
      });
      for (std::size_t c = 0; c < k; ++c) {
        if (std::memcmp(results[c].potential.data(), reference[c].data(),
                        reference[c].size() * sizeof(double)) != 0) {
          std::fprintf(stderr, "BUG: k=%zu column %zu differs from single-RHS\n",
                       k, c);
          bitwise_equal = false;
        }
      }
      const double per_rhs = stats.median_seconds / static_cast<double>(k);
      if (k == 1) per_rhs_k1 = per_rhs;
      if (k == 8) per_rhs_k8 = per_rhs;
      const double speedup = per_rhs_k1 / per_rhs;
      t.add_row({std::to_string(k), fmt_fixed(stats.median_seconds, 4),
                 fmt_fixed(per_rhs, 4), fmt_fixed(speedup, 2)});
      obs::Json wj = obs::Json::object();
      wj["k"] = static_cast<std::uint64_t>(k);
      wj["batch"] = bench::repeat_stats_json(stats);
      wj["per_rhs_seconds"] = per_rhs;
      wj["per_rhs_speedup"] = speedup;
      widths.push_back(std::move(wj));
    }
    std::printf("%s\n", t.to_string().c_str());
    std::printf("batch columns == single-RHS replays (bitwise): %s\n\n",
                bitwise_equal ? "yes" : "NO — BUG");

    const double speedup_per_rhs_k8 = per_rhs_k1 / per_rhs_k8;

    // End-to-end service throughput: concurrent submitters, coalescing
    // scheduler vs width-1 (serialized) scheduling.
    obs::Json service_json = obs::Json::object();
    double coalesced_rps = 0.0;
    for (const std::size_t width : {std::size_t{8}, std::size_t{1}}) {
      service::EvalService svc;
      service::EvalService::TenantOptions topt;
      topt.eval = cfg;
      topt.max_batch_width = width;
      topt.max_queue_depth = static_cast<std::size_t>(requests) *
                             static_cast<std::size_t>(submitters);
      svc.try_register_tenant("bem", gauss_particles(quad), mesh.vertices(), topt)
          .value_or_throw();
      // Warm the plan and build the multipoles before timing.
      (void)svc.try_submit("bem", columns[0]).value_or_throw().wait();

      Timer timer;
      std::vector<std::thread> workers;
      for (int s = 0; s < submitters; ++s) {
        workers.emplace_back([&, s] {
          std::vector<service::EvalService::Ticket> tickets;
          for (int i = 0; i < requests; ++i) {
            const std::size_t c =
                static_cast<std::size_t>(s * 31 + i) % columns.size();
            tickets.push_back(svc.try_submit("bem", columns[c]).value_or_throw());
          }
          for (auto& ticket : tickets) (void)ticket.wait().value_or_throw();
        });
      }
      for (std::thread& w : workers) w.join();
      const double seconds = timer.seconds();
      const double total = static_cast<double>(requests) *
                           static_cast<double>(submitters);
      const double rps = total / seconds;
      if (width == 8) coalesced_rps = rps;
      std::printf("service max_batch_width=%zu: %.0f requests in %.3f s = %.1f req/s\n",
                  width, total, seconds, rps);
      obs::Json sj = obs::Json::object();
      sj["seconds"] = seconds;
      sj["requests"] = total;
      sj["requests_per_second"] = rps;
      service_json[width == 8 ? "coalesced" : "serialized"] = std::move(sj);
    }
    std::printf("\n");

    obs::Json results = obs::Json::object();
    results["elements"] = mesh.num_triangles();
    results["vertices"] = mesh.num_vertices();
    results["sources"] = quad.size();
    results["widths"] = std::move(widths);
    results["speedup_per_rhs_k8"] = speedup_per_rhs_k8;
    results["coalesced_requests_per_second"] = coalesced_rps;
    results["service"] = std::move(service_json);
    results["bitwise_equal"] = bitwise_equal;
    run_report.results()["service_throughput"] = std::move(results);
    run_report.config()["elements"] = elements;
    run_report.config()["alpha"] = alpha;
    run_report.config()["threads"] = static_cast<std::uint64_t>(threads);
    run_report.config()["repeat"] = repeats;
    run_report.config()["requests"] = requests;
    run_report.config()["submitters"] = submitters;
    bench::emit_reports(obs_opts, run_report);
    return bitwise_equal ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
