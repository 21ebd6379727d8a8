// Microbenchmarks (google-benchmark) for the kernel-level building blocks:
// expansion operators vs degree, tree construction, SFC key throughput.
// These are the constants behind every table; run with --benchmark_filter
// to focus. `--metrics-out path.json` additionally dumps the final
// MetricsSnapshot as JSON (the google-benchmark flag parser owns argv here,
// so the flag is peeled off before benchmark::Initialize sees it).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>

#include "dist/distributions.hpp"
#include "geom/hilbert.hpp"
#include "multipole/operators.hpp"
#include "multipole/rotation.hpp"
#include "obs/instrument.hpp"
#include "obs/report.hpp"
#include "obs/reqtrace.hpp"
#include "tree/octree.hpp"

namespace {

using namespace treecode;

struct Fixture {
  std::vector<Vec3> pos;
  std::vector<double> q;
  Vec3 center{0.1, 0.2, 0.3};

  explicit Fixture(int n = 64) {
    std::mt19937_64 rng(1);
    std::uniform_real_distribution<double> u(-0.5, 0.5);
    for (int i = 0; i < n; ++i) {
      pos.push_back(center + Vec3{u(rng), u(rng), u(rng)});
      q.push_back(u(rng));
    }
  }
};

void BM_P2M(benchmark::State& state) {
  const Fixture f;
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    MultipoleExpansion m(p);
    p2m(f.center, f.pos, f.q, m);
    benchmark::DoNotOptimize(m.data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(f.pos.size()));
}
BENCHMARK(BM_P2M)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// The refresh half of replayed P2M, beside BM_P2M: the same 64 sources
// applied from a stored p2m basis (bitwise-equal to p2m()).
void BM_P2M_ApplyBasis(benchmark::State& state) {
  const Fixture f;
  const int p = static_cast<int>(state.range(0));
  std::vector<double> basis(p2m_basis_size(p, f.pos.size()));
  p2m_basis(p, f.center, f.pos, basis);
  MultipoleExpansion m(p);
  for (auto _ : state) {
    m.clear();
    p2m_apply_basis(f.q, basis.data(), m);
    benchmark::DoNotOptimize(m.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(f.pos.size()));
}
BENCHMARK(BM_P2M_ApplyBasis)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_M2P(benchmark::State& state) {
  const Fixture f;
  const int p = static_cast<int>(state.range(0));
  MultipoleExpansion m(p);
  p2m(f.center, f.pos, f.q, m);
  const Vec3 point{3.0, 2.0, 1.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(m2p(m, f.center, point));
  }
}
BENCHMARK(BM_M2P)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// The two halves of replayed M2P, beside BM_M2P (the fused on-the-fly
// kernel) at the same degrees: filling one target's basis, and applying an
// expansion to a stored basis (bitwise-equal to m2p()).
void BM_M2P_Basis(benchmark::State& state) {
  const Fixture f;
  const int p = static_cast<int>(state.range(0));
  std::vector<double> basis(m2p_basis_size(p));
  const Vec3 point{3.0, 2.0, 1.0};
  for (auto _ : state) {
    m2p_basis(p, f.center, point, basis);
    benchmark::DoNotOptimize(basis.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_M2P_Basis)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_M2P_ApplyBasis(benchmark::State& state) {
  const Fixture f;
  const int p = static_cast<int>(state.range(0));
  MultipoleExpansion m(p);
  p2m(f.center, f.pos, f.q, m);
  std::vector<double> basis(m2p_basis_size(p));
  m2p_basis(p, f.center, {3.0, 2.0, 1.0}, basis);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m2p_apply_basis(m, basis.data()));
  }
}
BENCHMARK(BM_M2P_ApplyBasis)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// One stored basis applied to K = 8 expansions at once (the batch replay's
// column width): per iteration, the work of eight BM_M2P_ApplyBasis.
void BM_M2P_ApplyBasisBatch(benchmark::State& state) {
  constexpr std::size_t kColumns = 8;
  const Fixture f;
  const int p = static_cast<int>(state.range(0));
  std::vector<MultipoleExpansion> m;
  for (std::size_t c = 0; c < kColumns; ++c) {
    std::vector<double> q = f.q;
    for (double& x : q) x *= static_cast<double>(c + 1);
    m.emplace_back(p);
    p2m(f.center, f.pos, q, m.back());
  }
  std::vector<double> basis(m2p_basis_size(p));
  m2p_basis(p, f.center, {3.0, 2.0, 1.0}, basis);
  double out[kColumns];
  for (auto _ : state) {
    m2p_apply_basis_batch(m, basis.data(), out);
    benchmark::DoNotOptimize(out);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(kColumns));
}
BENCHMARK(BM_M2P_ApplyBasisBatch)->Arg(4)->Arg(8);

void BM_M2P_Grad(benchmark::State& state) {
  const Fixture f;
  const int p = static_cast<int>(state.range(0));
  MultipoleExpansion m(p);
  p2m(f.center, f.pos, f.q, m);
  const Vec3 point{3.0, 2.0, 1.0};
  for (auto _ : state) {
    const PotentialGrad g = m2p_grad(m, f.center, point);
    benchmark::DoNotOptimize(g.potential);
  }
}
BENCHMARK(BM_M2P_Grad)->Arg(4)->Arg(8);

void BM_M2M(benchmark::State& state) {
  const Fixture f;
  const int p = static_cast<int>(state.range(0));
  MultipoleExpansion src(p);
  p2m(f.center, f.pos, f.q, src);
  const Vec3 dst_center{1.0, 0.5, -0.2};
  for (auto _ : state) {
    MultipoleExpansion dst(p);
    m2m(src, f.center, dst, dst_center);
    benchmark::DoNotOptimize(dst.data().data());
  }
}
BENCHMARK(BM_M2M)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_M2L(benchmark::State& state) {
  const Fixture f;
  const int p = static_cast<int>(state.range(0));
  MultipoleExpansion src(p);
  p2m(f.center, f.pos, f.q, src);
  const Vec3 local_center{4.0, 0.0, 0.0};
  for (auto _ : state) {
    LocalExpansion l(p);
    m2l(src, f.center, l, local_center);
    benchmark::DoNotOptimize(l.data().data());
  }
}
BENCHMARK(BM_M2L)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_M2L_Rotated(benchmark::State& state) {
  const Fixture f;
  const int p = static_cast<int>(state.range(0));
  MultipoleExpansion src(p);
  p2m(f.center, f.pos, f.q, src);
  const Vec3 local_center{4.0, 1.0, -2.0};
  for (auto _ : state) {
    LocalExpansion l(p);
    m2l_rotated(src, f.center, l, local_center);
    benchmark::DoNotOptimize(l.data().data());
  }
}
BENCHMARK(BM_M2L_Rotated)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_M2M_Rotated(benchmark::State& state) {
  const Fixture f;
  const int p = static_cast<int>(state.range(0));
  MultipoleExpansion src(p);
  p2m(f.center, f.pos, f.q, src);
  const Vec3 dst_center{1.0, 0.5, -0.2};
  for (auto _ : state) {
    MultipoleExpansion dst(p);
    m2m_rotated(src, f.center, dst, dst_center);
    benchmark::DoNotOptimize(dst.data().data());
  }
}
BENCHMARK(BM_M2M_Rotated)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_WignerD(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const WignerD d(p, 1.1);
    benchmark::DoNotOptimize(d.at(p, 0, 0));
  }
}
BENCHMARK(BM_WignerD)->Arg(4)->Arg(8)->Arg(16);

void BM_P2P(benchmark::State& state) {
  const Fixture f(static_cast<int>(state.range(0)));
  const Vec3 point{0.9, 0.9, 0.9};
  for (auto _ : state) {
    benchmark::DoNotOptimize(p2p(point, f.pos, f.q));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_P2P)->Arg(32)->Arg(256);

void BM_HilbertKey(benchmark::State& state) {
  Aabb box;
  box.expand({0, 0, 0});
  box.expand({1, 1, 1});
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<Vec3> pts(1024);
  for (auto& pnt : pts) pnt = {u(rng), u(rng), u(rng)};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hilbert_key(pts[i++ & 1023], box));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HilbertKey);

// Observability overhead check: the same M2P hot-loop body with and without
// the per-event instrumentation the evaluators use (a PhaseSpan plus
// count_slot into thread-private arrays, flushed once per batch). With
// -DTREECODE_TRACING=OFF the two must agree to <2% (ISSUE 2 acceptance);
// with tracing compiled in but not started the span costs one relaxed load.
void BM_ObsOverhead_Baseline(benchmark::State& state) {
  const Fixture f;
  MultipoleExpansion m(4);
  p2m(f.center, f.pos, f.q, m);
  const Vec3 point{3.0, 2.0, 1.0};
  std::uint64_t terms = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m2p(m, f.center, point));
    terms += 25;
  }
  benchmark::DoNotOptimize(terms);
}
BENCHMARK(BM_ObsOverhead_Baseline);

void BM_ObsOverhead_Instrumented(benchmark::State& state) {
  const Fixture f;
  MultipoleExpansion m(4);
  p2m(f.center, f.pos, f.q, m);
  const Vec3 point{3.0, 2.0, 1.0};
  std::uint64_t terms = 0;
  obs::DegreeCounts degree_used{};
  obs::LevelCounts m2p_by_level{};
  for (auto _ : state) {
    const obs::reqtrace::PhaseSpan span("micro.m2p");
    benchmark::DoNotOptimize(m2p(m, f.center, point));
    terms += 25;
    obs::count_slot(degree_used, 4);
    obs::count_slot(m2p_by_level, 3);
  }
  obs::flush_counts("micro.degree_used", degree_used);
  obs::flush_counts("micro.m2p_per_level", m2p_by_level);
  obs::registry().counter("micro.multipole_terms").add(terms);
  benchmark::DoNotOptimize(terms);
}
BENCHMARK(BM_ObsOverhead_Instrumented);

void BM_TreeBuild(benchmark::State& state) {
  const ParticleSystem ps =
      dist::uniform_cube(static_cast<std::size_t>(state.range(0)), 5);
  for (auto _ : state) {
    const Tree tree(ps, {.leaf_capacity = 8});
    benchmark::DoNotOptimize(tree.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TreeBuild)->Arg(10'000)->Arg(100'000);

/// Remove `--metrics-out path` / `--metrics-out=path` from argv (returning
/// the path) so benchmark::Initialize's strict flag parser never sees it.
std::string take_metrics_out_flag(int& argc, char** argv) {
  std::string path;
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      path = argv[++i];
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      path = argv[i] + 14;
    } else {
      argv[w++] = argv[i];
    }
  }
  argc = w;
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string metrics_out = take_metrics_out_flag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!metrics_out.empty()) {
    treecode::obs::write_json_file(
        metrics_out, treecode::obs::metrics_json(treecode::obs::registry().snapshot()));
  }
  return 0;
}
