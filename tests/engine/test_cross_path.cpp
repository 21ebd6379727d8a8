// Generated-input cross-path test: seeded degenerate geometries crossed with
// seeded configurations. For every case the fresh alpha-MAC walk, the
// compiled replay, every batch column and the rung-1 traversal must agree
// bitwise, and the Theorem-1 certificate must bound the true error of every
// target. The geometries are the MAC's edge cases (after Engblom's
// well-separated sets): coincident and collinear sources, a planar sheet, a
// single particle, zero-net-charge clusters, and targets sitting exactly on
// expansion centres or on source particles.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/barnes_hut.hpp"
#include "engine/eval_session.hpp"
#include "multipole/expansion.hpp"
#include "multipole/operators.hpp"
#include "parallel/thread_pool.hpp"
#include "tree/octree.hpp"

namespace treecode {
namespace {

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  template <typename T>
  const T& pick(const std::vector<T>& options) {
    return options[next() % options.size()];
  }

 private:
  std::uint64_t state_;
};

enum class Shape { kCoincident, kCollinear, kSheet, kSingle, kZeroNet };

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kCoincident: return "coincident";
    case Shape::kCollinear: return "collinear";
    case Shape::kSheet: return "sheet";
    case Shape::kSingle: return "single";
    case Shape::kZeroNet: return "zero-net";
  }
  return "?";
}

ParticleSystem make_sources(Shape shape, SplitMix64& rng) {
  std::vector<Vec3> pos;
  std::vector<double> q;
  const std::size_t n = shape == Shape::kSingle ? 1 : 300;
  std::vector<Vec3> sites;
  for (int s = 0; s < 6; ++s) {
    sites.push_back({rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)});
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double t = rng.uniform(0, 1);
    switch (shape) {
      case Shape::kCoincident:  // many particles on a handful of exact sites
        pos.push_back(sites[rng.next() % sites.size()]);
        break;
      case Shape::kCollinear:
        pos.push_back({0.1 + 0.8 * t, 0.3 + 0.4 * t, 0.9 - 0.6 * t});
        break;
      case Shape::kSheet:
        pos.push_back({t, rng.uniform(0, 1), 0.5});
        break;
      case Shape::kSingle:
        pos.push_back({0.4, 0.6, 0.5});
        break;
      case Shape::kZeroNet: {  // +q/-q pairs around a few cluster sites
        const Vec3 c = sites[rng.next() % sites.size()];
        pos.push_back({c.x + 0.05 * rng.uniform(-1, 1), c.y + 0.05 * rng.uniform(-1, 1),
                       c.z + 0.05 * rng.uniform(-1, 1)});
        break;
      }
    }
    const double magnitude = 1.0 + 0.1 * static_cast<double>(i / 2 % 5);
    q.push_back(shape == Shape::kZeroNet ? (i % 2 == 0 ? magnitude : -magnitude)
                                         : rng.uniform(-1.0, 1.5));
  }
  if (shape == Shape::kZeroNet) {
    for (std::size_t i = 1; i < n; i += 2) {  // each negative charge sits by its partner
      pos[i] = {pos[i - 1].x + 1e-3, pos[i - 1].y, pos[i - 1].z};
    }
  }
  return ParticleSystem(std::move(pos), std::move(q));
}

/// Targets: every non-empty node's expansion centre, a sample of the source
/// particles themselves, and random points around the domain.
std::vector<Vec3> make_targets(const Tree& tree, SplitMix64& rng) {
  std::vector<Vec3> t;
  for (const TreeNode& node : tree.nodes()) {
    if (node.count() > 0 && t.size() < 40) t.push_back(node.center);
  }
  for (std::size_t i = 0; i < tree.num_particles() && t.size() < 60; i += 7) {
    t.push_back(tree.positions()[i]);
  }
  while (t.size() < 90) {
    t.push_back({rng.uniform(-0.3, 1.3), rng.uniform(-0.3, 1.3), rng.uniform(-0.3, 1.3)});
  }
  return t;
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(CrossPath, GeneratedEdgeCasesAgreeBitwiseAndRespectTheCertificate) {
  SplitMix64 rng(0x5eed);
  int rung1_cases = 0;
  int demoting_cases = 0;
  const std::vector<Shape> shapes = {Shape::kCoincident, Shape::kCollinear, Shape::kSheet,
                                     Shape::kSingle, Shape::kZeroNet};
  for (int round = 0; round < 6; ++round) {
    for (const Shape shape : shapes) {
      const ParticleSystem ps = make_sources(shape, rng);
      TreeConfig tree_cfg;
      tree_cfg.leaf_capacity = rng.pick(std::vector<std::size_t>{1, 3, 8, 16});
      EvalConfig cfg;
      cfg.alpha = rng.pick(std::vector<double>{0.3, 0.4, 0.5, 0.6, 0.7});
      cfg.degree = rng.pick(std::vector<int>{1, 3, 5});
      cfg.mode = rng.next() % 2 == 0 ? DegreeMode::kFixed : DegreeMode::kAdaptive;
      cfg.threads = rng.pick(std::vector<unsigned>{1, 2, 3});
      cfg.block_size = rng.pick(std::vector<std::size_t>{1, 5, 64});
      cfg.track_error_bounds = true;
      if (rng.next() % 2 == 0) {
        cfg.enforce_budget = true;
        cfg.error_budget = rng.pick(std::vector<double>{1e-2, 1e-4});
      }
      const std::size_t k = rng.pick(std::vector<std::size_t>{1, 2, 5, 9});
      const std::string where = std::string(shape_name(shape)) + " round " +
                                std::to_string(round) + " alpha " +
                                std::to_string(cfg.alpha) + " k " + std::to_string(k);

      const Tree tree(ps, tree_cfg);
      const std::vector<Vec3> targets = make_targets(tree, rng);
      engine::EvalSession session(Tree(ps, tree_cfg), cfg);
      const auto plan = session.try_compile(targets).value_or_throw();
      // Column 0 is the tree's own charges: the per-cluster |q| aggregates
      // behind the Theorem-1 bound are frozen from them at tree build, so
      // the certificate is checked on that column.
      std::vector<std::vector<double>> cols(k, ps.charges());
      for (std::size_t c = 1; c < k; ++c) {
        for (double& v : cols[c]) v = rng.uniform(-1.0, 1.0);
      }
      std::vector<std::span<const double>> spans(cols.begin(), cols.end());
      const auto batch = session.try_evaluate_batch(*plan, spans).value_or_throw();

      ThreadPool pool(cfg.threads);
      for (std::size_t c = 0; c < k; ++c) {
        session.try_update_charges(cols[c]).value_or_throw();
        const EvalResult replay = session.try_evaluate(*plan).value_or_throw();
        EXPECT_TRUE(bitwise_equal(batch[c].potential, replay.potential)) << where << " col " << c;
        EXPECT_TRUE(bitwise_equal(batch[c].error_bound, replay.error_bound)) << where;

        const std::span<const double> sorted = session.sorted_charges();
        const BarnesHutEvaluator fresh(tree, cfg, &pool, sorted);
        const EvalResult walk = fresh.evaluate_at(pool, targets);
        EXPECT_TRUE(bitwise_equal(walk.potential, replay.potential)) << where << " col " << c;
        EXPECT_TRUE(bitwise_equal(walk.error_bound, replay.error_bound)) << where;
        if (walk.stats.budget_refinements > 0) ++demoting_cases;

        // The certificate: |phi - phi_direct| <= error_bound, up to the
        // rounding of two differently ordered sums.
        for (std::size_t i = 0; c == 0 && i < targets.size(); ++i) {
          const double exact = p2p(targets[i], tree.positions(), sorted, 0.0);
          double scale = 0.0;
          for (std::size_t j = 0; j < tree.num_particles(); ++j) {
            const double r = distance(targets[i], tree.positions()[j]);
            if (r > 0.0) scale += std::abs(sorted[j]) / r;
          }
          EXPECT_LE(std::abs(replay.potential[i] - exact),
                    replay.error_bound[i] * (1.0 + 1e-12) + 1e-13 * scale)
              << where << " col " << c << " target " << i;
        }
      }

      // Rung 1: afford the transient traversal multipoles but not the plan.
      const std::size_t plan_core = plan->memory_bytes();
      std::size_t traversal = 0;
      for (const int p : session.degrees().degree) traversal += tri_size(p) * sizeof(Complex);
      if (traversal < plan_core) {
        EvalConfig budgeted = cfg;
        budgeted.memory_budget_bytes = (traversal + plan_core) / 2;
        engine::EvalSession degraded(Tree(ps, tree_cfg), budgeted);
        degraded.try_update_charges(cols[k - 1]).value_or_throw();
        const EvalResult r2 = degraded.try_evaluate_at(targets).value_or_throw();
        ASSERT_EQ(r2.stats.served_rung, ServeRung::kTraversal) << where;
        EXPECT_TRUE(bitwise_equal(r2.potential, batch[k - 1].potential)) << where;
        EXPECT_TRUE(bitwise_equal(r2.error_bound, batch[k - 1].error_bound)) << where;
        ++rung1_cases;
      }
    }
  }
  // The generator must actually reach the paths it claims to cover.
  EXPECT_GT(rung1_cases, 5);
  EXPECT_GT(demoting_cases, 0);
}

}  // namespace
}  // namespace treecode
