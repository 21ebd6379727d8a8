// End-to-end audit-engine tests against real evaluations: enabling the
// sampled exact-error audit must not perturb potentials, must take exactly
// the requested number of samples, and — the paper's Theorem 1 being a
// rigorous bound — every observed tightness ratio must be <= 1. The replay
// engine must audit the identical sample set as a fresh traversal.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "core/treecode.hpp"
#include "dist/distributions.hpp"
#include "engine/eval_session.hpp"
#include "parallel/thread_pool.hpp"

namespace treecode {
namespace {

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

EvalConfig audited_config(std::size_t samples, std::uint64_t seed = 7) {
  EvalConfig cfg;
  cfg.alpha = 0.5;
  cfg.degree = 4;
  cfg.threads = 2;
  cfg.audit_samples = samples;
  cfg.audit_seed = seed;
  return cfg;
}

TEST(AuditEval, DisabledByDefaultReportsZeros) {
  EvalConfig cfg = audited_config(0);
  const EvalResult r = evaluate_barnes_hut(Tree(clustered(1500, 3)), cfg);
  EXPECT_EQ(r.stats.audit_samples, 0u);
  EXPECT_EQ(r.stats.audit_bound_violations, 0u);
  EXPECT_EQ(r.stats.audit_max_tightness, 0.0);
  EXPECT_EQ(r.stats.audit_mean_tightness, 0.0);
}

TEST(AuditEval, TakesKSamplesAndEveryRatioRespectsTheBound) {
  const Tree tree(clustered(3000, 5));
  const EvalResult r = evaluate_barnes_hut(tree, audited_config(64));
  // A 3000-particle evaluation accepts far more than 64 M2P interactions,
  // so the reservoir fills completely.
  EXPECT_EQ(r.stats.audit_samples, 64u);
  // Theorem 1 is rigorous: any sampled ratio above 1 is a bug.
  EXPECT_EQ(r.stats.audit_bound_violations, 0u);
  EXPECT_GT(r.stats.audit_max_tightness, 0.0);
  EXPECT_LE(r.stats.audit_max_tightness, 1.0);
  EXPECT_GT(r.stats.audit_mean_tightness, 0.0);
  EXPECT_LE(r.stats.audit_mean_tightness, r.stats.audit_max_tightness);
}

TEST(AuditEval, AdaptiveDegreesAuditCleanToo) {
  const Tree tree(clustered(3000, 5));
  EvalConfig cfg = audited_config(48);
  cfg.mode = DegreeMode::kAdaptive;
  const EvalResult r = evaluate_barnes_hut(tree, cfg);
  EXPECT_EQ(r.stats.audit_samples, 48u);
  EXPECT_EQ(r.stats.audit_bound_violations, 0u);
  EXPECT_LE(r.stats.audit_max_tightness, 1.0);
}

TEST(AuditEval, AuditingDoesNotPerturbThePotentials) {
  const ParticleSystem ps = clustered(2000, 9);
  EvalConfig plain = audited_config(0);
  const EvalResult off = evaluate_barnes_hut(Tree(ps), plain);
  const EvalResult on = evaluate_barnes_hut(Tree(ps), audited_config(32));
  EXPECT_TRUE(bitwise_equal(off.potential, on.potential));
}

TEST(AuditEval, SeedSelectsADifferentSampleSetOnTheSameRun) {
  const Tree tree(clustered(2500, 21));
  const EvalResult a = evaluate_barnes_hut(tree, audited_config(32, 1));
  const EvalResult b = evaluate_barnes_hut(tree, audited_config(32, 2));
  EXPECT_TRUE(bitwise_equal(a.potential, b.potential));
  EXPECT_EQ(a.stats.audit_samples, 32u);
  EXPECT_EQ(b.stats.audit_samples, 32u);
  // Different seeds audit different interactions; identical summaries for
  // both would mean the seed is ignored. max is a single order statistic,
  // so compare the means (64 independent draws agreeing bitwise is not
  // plausible).
  EXPECT_NE(a.stats.audit_mean_tightness, b.stats.audit_mean_tightness);
}

TEST(AuditEval, FmmIgnoresAuditRequests) {
  // M2L interactions are not per-target attributable, so the FMM evaluator
  // documents audit_samples as unsupported and reports zero.
  const Tree tree(clustered(1500, 31));
  const EvalResult r = evaluate_potentials(tree, audited_config(16), Method::kFmm);
  EXPECT_EQ(r.stats.audit_samples, 0u);
}

TEST(AuditEval, ReplayAuditMatchesFreshTraversal) {
  // The compiled plan freezes the per-target acceptance order, so the
  // replay's (target, ordinal) sampling keys — and therefore the audited
  // sample set and its summary — must match a fresh traversal exactly.
  // Both the fresh walk and the replay offer their samples only after the
  // target's deferred M2P flush.
  const ParticleSystem ps = clustered(2500, 11);
  const EvalConfig cfg = audited_config(40);
  const std::vector<Vec3> targets = grid_targets(300, 7);

  const Tree fresh_tree(ps);
  ThreadPool pool(cfg.threads);
  const BarnesHutEvaluator fresh(fresh_tree, cfg, &pool);
  const EvalResult ref = fresh.evaluate_at(pool, targets);

  engine::EvalSession session(Tree(ps), cfg);
  const EvalResult replay = session.evaluate_at(targets);
  EXPECT_TRUE(bitwise_equal(ref.potential, replay.potential));
  EXPECT_EQ(ref.stats.audit_samples, replay.stats.audit_samples);
  EXPECT_EQ(ref.stats.audit_bound_violations, replay.stats.audit_bound_violations);
  EXPECT_EQ(ref.stats.audit_max_tightness, replay.stats.audit_max_tightness);
  EXPECT_EQ(ref.stats.audit_mean_tightness, replay.stats.audit_mean_tightness);
  EXPECT_GT(replay.stats.audit_samples, 0u);
  EXPECT_EQ(replay.stats.audit_bound_violations, 0u);
}

TEST(AuditEval, SelfEvaluationReplayAuditMatchesFresh) {
  const ParticleSystem ps = clustered(2000, 13);
  const EvalConfig cfg = audited_config(32);
  engine::EvalSession session(Tree(ps), cfg);
  const EvalResult replay = session.evaluate();
  const EvalResult ref = evaluate_barnes_hut(Tree(ps), cfg);
  EXPECT_TRUE(bitwise_equal(ref.potential, replay.potential));
  EXPECT_EQ(ref.stats.audit_samples, replay.stats.audit_samples);
  EXPECT_EQ(ref.stats.audit_max_tightness, replay.stats.audit_max_tightness);
  EXPECT_EQ(ref.stats.audit_mean_tightness, replay.stats.audit_mean_tightness);
}

}  // namespace
}  // namespace treecode
