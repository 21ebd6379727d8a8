#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <utility>
#include <vector>

#include "core/direct.hpp"
#include "core/treecode.hpp"
#include "dist/distributions.hpp"
#include "engine/eval_session.hpp"
#include "multipole/legendre.hpp"
#include "parallel/thread_pool.hpp"

namespace treecode {
namespace {

EvalConfig base_config() {
  EvalConfig cfg;
  cfg.alpha = 0.5;
  cfg.degree = 4;
  cfg.threads = 2;
  cfg.track_error_bounds = true;
  return cfg;
}

ParticleSystem clustered(std::size_t n, unsigned seed) {
  return dist::overlapped_gaussians(n, 3, seed, 0.08, dist::ChargeModel::kMixedSign);
}

std::vector<Vec3> grid_targets(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-0.2, 1.2);
  std::vector<Vec3> t(n);
  for (Vec3& x : t) x = {u(rng), u(rng), u(rng)};
  return t;
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Bytes a rung-1 traversal transiently needs: every node's multipole
/// coefficients at its assigned degree (mirrors
/// EvalSession::serve_degraded).
std::size_t traversal_bytes(const engine::EvalSession& session) {
  std::size_t total = 0;
  const auto& degree = session.degrees().degree;
  for (std::size_t nu = 0; nu < session.tree().nodes().size(); ++nu) {
    total += tri_size(degree[nu]) * sizeof(Complex);
  }
  return total;
}

/// |phi - exact| <= error_bound, element-wise — the Theorem-1 guarantee the
/// ladder must preserve at every rung.
void expect_bounds_hold(const EvalResult& r, std::span<const double> exact) {
  ASSERT_EQ(r.potential.size(), exact.size());
  ASSERT_EQ(r.error_bound.size(), exact.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    // Slack for floating-point accumulation: the direct rung reproduces the
    // reference sum in a different order, so allow summation roundoff
    // relative to the potential's magnitude on top of the bound itself.
    EXPECT_LE(std::abs(r.potential[i] - exact[i]),
              r.error_bound[i] * (1.0 + 1e-12) + 1e-11 + 1e-12 * std::abs(exact[i]))
        << "target " << i;
  }
}

TEST(Degradation, UnbudgetedSessionServesRungZero) {
  const ParticleSystem ps = clustered(1500, 17);
  engine::EvalSession session(Tree(ps), base_config());
  const std::vector<Vec3> targets = grid_targets(200, 23);
  auto r = session.try_evaluate_at(targets);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().stats.served_rung, ServeRung::kReplay);
  EXPECT_EQ(r.value().stats.outcome, ErrorCode::kOk);
  EXPECT_EQ(r.value().stats.targets_served, targets.size());
}

TEST(Degradation, PlanDeniedFallsToTraversalRung) {
  const ParticleSystem ps = clustered(1500, 29);
  const std::vector<Vec3> targets = grid_targets(800, 31);
  const EvalConfig cfg = base_config();

  // Calibrate: learn the plan's core size from an unbudgeted session, then
  // budget a second session to afford the traversal multipoles but not the
  // plan. With 800 targets the compiled entry stream dwarfs the per-node
  // coefficient storage.
  engine::EvalSession probe(Tree(ps), cfg);
  auto plan = probe.try_compile(targets);
  ASSERT_TRUE(plan.ok());
  const std::size_t plan_bytes = plan.value()->memory_bytes();
  const std::size_t rung1_bytes = traversal_bytes(probe);
  ASSERT_LT(rung1_bytes, plan_bytes)
      << "test geometry no longer separates rung 1 from the plan footprint";

  EvalConfig budgeted = cfg;
  budgeted.memory_budget_bytes = (rung1_bytes + plan_bytes) / 2;
  engine::EvalSession session(Tree(ps), budgeted);
  auto r = session.try_evaluate_at(targets);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().stats.served_rung, ServeRung::kTraversal);
  EXPECT_EQ(r.value().stats.outcome, ErrorCode::kOk);
  EXPECT_EQ(session.governor().denials(), 1u);
  // The traversal reservation is transient: released after the serve.
  EXPECT_EQ(session.governor().used(), 0u);

  // Rung 1 is the same alpha-MAC traversal the plan would have replayed.
  const EvalResult reference = probe.evaluate(*plan.value());
  EXPECT_TRUE(bitwise_equal(reference.potential, r.value().potential));
  EXPECT_TRUE(bitwise_equal(reference.error_bound, r.value().error_bound));
}

TEST(Degradation, StarvedSessionServesExactDirectRung) {
  const ParticleSystem ps = clustered(600, 37);
  const std::vector<Vec3> targets = grid_targets(50, 41);
  EvalConfig cfg = base_config();
  cfg.memory_budget_bytes = 1024;  // below even the multipole coefficients
  engine::EvalSession session(Tree(ps), cfg);
  auto r = session.try_evaluate_at(targets);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().stats.served_rung, ServeRung::kDirect);
  EXPECT_EQ(r.value().stats.outcome, ErrorCode::kOk);
  EXPECT_EQ(r.value().stats.targets_served, targets.size());

  // Rung 2 is exact summation: zero truncation error, bounds identically 0.
  const EvalResult exact = evaluate_direct_at(ps, targets, cfg.threads);
  ASSERT_EQ(r.value().potential.size(), exact.potential.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(r.value().error_bound[i], 0.0);
    // Summation order differs (sorted vs original particle order), so the
    // two exact sums agree to rounding, not bitwise.
    EXPECT_NEAR(r.value().potential[i], exact.potential[i],
                1e-10 * std::abs(exact.potential[i]) + 1e-10);
  }
}

TEST(Degradation, SelfEvaluationDegradesToDirect) {
  const ParticleSystem ps = clustered(500, 43);
  EvalConfig cfg = base_config();
  cfg.memory_budget_bytes = 512;
  engine::EvalSession session(Tree(ps), cfg);
  auto r = session.try_evaluate();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().stats.served_rung, ServeRung::kDirect);
  // Self-serve scatters to the caller's original particle order, exactly
  // like the replay path.
  const EvalResult exact = evaluate_direct(ps, cfg.threads);
  ASSERT_EQ(r.value().potential.size(), exact.potential.size());
  for (std::size_t i = 0; i < exact.potential.size(); ++i) {
    EXPECT_NEAR(r.value().potential[i], exact.potential[i],
                1e-10 * std::abs(exact.potential[i]) + 1e-10);
  }
}

TEST(Degradation, TheoremOneBoundHoldsAtEveryRung) {
  const ParticleSystem ps = clustered(900, 47);
  const std::vector<Vec3> targets = grid_targets(800, 53);
  const EvalResult exact = evaluate_direct_at(ps, targets, 2);

  // Rung 1 needs a budget between the traversal's transient multipoles and
  // the plan (with 800 targets the entry stream is the larger).
  engine::EvalSession probe(Tree(ps), base_config());
  const std::size_t plan_bytes = probe.compile(targets)->memory_bytes();
  const std::size_t rung1_bytes = traversal_bytes(probe);
  ASSERT_LT(rung1_bytes, plan_bytes);
  const std::pair<std::size_t, ServeRung> budgets[] = {
      {0, ServeRung::kReplay},
      {(rung1_bytes + plan_bytes) / 2, ServeRung::kTraversal},
      {1024, ServeRung::kDirect}};
  for (const auto& [budget, rung] : budgets) {
    EvalConfig cfg = base_config();
    cfg.memory_budget_bytes = budget;
    engine::EvalSession session(Tree(ps), cfg);
    auto r = session.try_evaluate_at(targets);
    ASSERT_TRUE(r.ok()) << "budget " << budget;
    EXPECT_EQ(r.value().stats.served_rung, rung) << "budget " << budget;
    expect_bounds_hold(r.value(), exact.potential);
  }
}

TEST(Degradation, RungChoiceBitwiseIdenticalAcrossThreadCounts) {
  const ParticleSystem ps = clustered(1200, 59);
  const std::vector<Vec3> targets = grid_targets(400, 61);
  // A budget that lands mid-ladder; whichever rung it selects must be the
  // same — and produce bitwise-identical output — at every thread count.
  for (const std::size_t budget : {std::size_t{0}, std::size_t{256} << 10,
                                   std::size_t{2048}}) {
    ServeRung rung1{};
    std::vector<double> phi1;
    for (const unsigned threads : {1u, 4u}) {
      EvalConfig cfg = base_config();
      cfg.threads = threads;
      cfg.memory_budget_bytes = budget;
      engine::EvalSession session(Tree(ps), cfg);
      auto r = session.try_evaluate_at(targets);
      ASSERT_TRUE(r.ok()) << "budget " << budget << " threads " << threads;
      if (threads == 1u) {
        rung1 = r.value().stats.served_rung;
        phi1 = r.value().potential;
      } else {
        EXPECT_EQ(r.value().stats.served_rung, rung1) << "budget " << budget;
        EXPECT_TRUE(bitwise_equal(phi1, r.value().potential))
            << "budget " << budget;
      }
    }
  }
}

TEST(Degradation, DeadlineExpiresAsTypedError) {
  const ParticleSystem ps = clustered(2000, 67);
  EvalConfig cfg = base_config();
  cfg.deadline_seconds = 1e-9;  // expired before the first worker block polls
  engine::EvalSession session(Tree(ps), cfg);
  auto r = session.try_evaluate_at(grid_targets(300, 71));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kDeadline);
}

TEST(Degradation, DeadlinePartialPolicyReturnsServedPrefix) {
  const ParticleSystem ps = clustered(2000, 73);
  const std::vector<Vec3> targets = grid_targets(300, 79);
  EvalConfig cfg = base_config();
  cfg.deadline_seconds = 1e-9;
  cfg.deadline_partial = true;
  engine::EvalSession session(Tree(ps), cfg);
  auto r = session.try_evaluate_at(targets);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().stats.outcome, ErrorCode::kDeadline);
  EXPECT_LT(r.value().stats.targets_served, targets.size());
  // Unserved slots are defensively zeroed, never uninitialized.
  EXPECT_EQ(r.value().potential.size(), targets.size());
  for (const double phi : r.value().potential) EXPECT_TRUE(std::isfinite(phi));
}

TEST(Degradation, GenerousDeadlineCompletesNormally) {
  const ParticleSystem ps = clustered(800, 83);
  EvalConfig cfg = base_config();
  cfg.deadline_seconds = 3600.0;
  engine::EvalSession session(Tree(ps), cfg);
  const std::vector<Vec3> targets = grid_targets(100, 89);
  auto r = session.try_evaluate_at(targets);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().stats.outcome, ErrorCode::kOk);
  EXPECT_EQ(r.value().stats.targets_served, targets.size());
  // The per-evaluation deadline is disarmed on exit.
  EXPECT_FALSE(session.governor().deadline_armed());
}

TEST(Degradation, NegativeDeadlineRejectedAtConstruction) {
  EvalConfig cfg = base_config();
  cfg.deadline_seconds = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Degradation, CacheEvictionReturnsBytesToGovernor) {
  const ParticleSystem ps = clustered(800, 97);
  EvalConfig cfg = base_config();
  engine::EvalSession session(Tree(ps), cfg);
  auto p1 = session.try_compile(grid_targets(150, 101));
  ASSERT_TRUE(p1.ok());
  const std::size_t used_one_plan = session.governor().used();
  ASSERT_GT(used_one_plan, 0u);
  auto p2 = session.try_compile(grid_targets(150, 103));
  ASSERT_TRUE(p2.ok());
  ASSERT_GT(session.governor().used(), used_one_plan);
  session.cache().clear();
  // Both plans' reservations returned; only session-durable state (here:
  // none — no evaluate ran, so no multipoles were built) remains.
  EXPECT_EQ(session.governor().used(), 0u);
}

}  // namespace
}  // namespace treecode
