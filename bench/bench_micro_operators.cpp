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
#include <span>
#include <string>

#include "core/degree_policy.hpp"
#include "core/interaction_walk.hpp"
#include "dist/distributions.hpp"
#include "geom/hilbert.hpp"
#include "multipole/operators.hpp"
#include "multipole/rotation.hpp"
#include "obs/instrument.hpp"
#include "obs/report.hpp"
#include "obs/reqtrace.hpp"
#include "obs/spans.hpp"
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
BENCHMARK(BM_P2M)->Arg(2)->Arg(4)->DenseRange(8, 11)->Arg(16);

// K charge columns over the same 64 sources (the batch refresh): the
// harmonics run once per source for every column. Items are sources times
// columns, so time per item compares with BM_P2M's per source.
void BM_P2M_Batch(benchmark::State& state) {
  const Fixture f;
  const auto k = static_cast<std::size_t>(state.range(0));
  const int p = static_cast<int>(state.range(1));
  std::vector<std::vector<double>> q(k, f.q);
  for (std::size_t c = 0; c < k; ++c) {
    for (double& x : q[c]) x *= static_cast<double>(c + 1);
  }
  const std::vector<std::span<const double>> columns(q.begin(), q.end());
  std::vector<MultipoleExpansion> m(k, MultipoleExpansion(p));
  for (auto _ : state) {
    for (MultipoleExpansion& e : m) e.clear();
    p2m_batch(f.center, f.pos, columns, m);
    benchmark::DoNotOptimize(m.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(k * f.pos.size()));
}
BENCHMARK(BM_P2M_Batch)->ArgsProduct({{2, 8}, {4, 8}});

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

// Two expansions per call through the two-lane kernel (bitwise two m2p()
// calls); items are M2P evaluations, comparable with BM_M2P's time/2.
void BM_M2P_Pair(benchmark::State& state) {
  const Fixture f;
  const int p = static_cast<int>(state.range(0));
  MultipoleExpansion a(p);
  MultipoleExpansion b(p);
  p2m(f.center, f.pos, f.q, a);
  p2m(f.center, f.pos, std::vector<double>(f.q.rbegin(), f.q.rend()), b);
  const Vec3 point{3.0, 2.0, 1.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(m2p_pair(a, f.center, b, f.center, point));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_M2P_Pair)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// The walk's view of M2P: 4,096 distinct expansions about distinct centres,
// visited in turn, so the coefficients come from cache rather than
// registers and no two consecutive calls share a direction. Items are M2P
// evaluations in both.
struct ColdExpansions {
  static constexpr std::size_t kCount = 4096;
  std::vector<MultipoleExpansion> m;
  std::vector<Vec3> center;
  Vec3 point{3.0, 2.0, 1.0};

  explicit ColdExpansions(int p) {
    const Fixture f(16);
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> u(-0.5, 0.5);
    for (std::size_t i = 0; i < kCount; ++i) {
      const Vec3 shift{u(rng), u(rng), u(rng)};
      std::vector<Vec3> pos = f.pos;
      for (Vec3& x : pos) x += shift;
      center.push_back(f.center + shift);
      m.emplace_back(p);
      p2m(center.back(), pos, f.q, m.back());
    }
  }
};

void BM_M2P_Cold(benchmark::State& state) {
  const ColdExpansions e(static_cast<int>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m2p(e.m[i], e.center[i], e.point));
    i = (i + 1) % ColdExpansions::kCount;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_M2P_Cold)->DenseRange(4, 10);

void BM_M2P_PairCold(benchmark::State& state) {
  const ColdExpansions e(static_cast<int>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        m2p_pair(e.m[i], e.center[i], e.m[i + 1], e.center[i + 1], e.point));
    i = (i + 2) % ColdExpansions::kCount;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_M2P_PairCold)->DenseRange(4, 10);

// K expansions about one centre evaluated at one point (the batch replay's
// M2P entry): one direction and one harmonic recurrence for every column.
// Items are column evaluations, comparable with BM_M2P_Pair's.
void BM_M2P_Batch(benchmark::State& state) {
  const Fixture f;
  const auto k = static_cast<std::size_t>(state.range(0));
  const int p = static_cast<int>(state.range(1));
  std::vector<MultipoleExpansion> m;
  for (std::size_t c = 0; c < k; ++c) {
    std::vector<double> q = f.q;
    for (double& x : q) x *= static_cast<double>(c + 1);
    m.emplace_back(p);
    p2m(f.center, f.pos, q, m.back());
  }
  const Vec3 point{3.0, 2.0, 1.0};
  std::vector<double> out(k);
  for (auto _ : state) {
    m2p_batch(m, f.center, point, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(k));
}
BENCHMARK(BM_M2P_Batch)->ArgsProduct({{2, 8}, {4, 8}});

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
// count_slot into thread-private arrays, flushed once per batch). The
// tracer is always compiled in; while it is not enabled the span costs one
// relaxed load, so the two should agree to within a few percent.
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
BENCHMARK(BM_TreeBuild)->Arg(6'000)->Arg(10'000)->Arg(100'000);

// The cold upward pass of one bh-cold-sized instance: P2M of every node of
// a 6,000-particle overlapped-Gaussian tree at its Theorem-3 degree
// (alpha 0.5, p_min 4), over a pool of width 1 or 4.
void BM_BuildMultipoles(benchmark::State& state) {
  const ParticleSystem ps = dist::overlapped_gaussians(6'000, 8, 3);
  const Tree tree(ps);
  EvalConfig config;
  config.alpha = 0.5;
  config.degree = 4;
  config.mode = DegreeMode::kAdaptive;
  const DegreeAssignment degrees = assign_degrees(tree, config);
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    const std::vector<MultipoleExpansion> m =
        build_multipoles(tree, degrees.degree, tree.charges(), &pool, obs::span::kBhP2mWorker);
    benchmark::DoNotOptimize(m.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(tree.num_nodes()));
}
BENCHMARK(BM_BuildMultipoles)->Arg(1)->Arg(4)->UseRealTime();

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
