#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "core/treecode.hpp"
#include "dist/distributions.hpp"
#include "engine/eval_session.hpp"
#include "parallel/thread_pool.hpp"

namespace treecode {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

EvalConfig base_config() {
  EvalConfig cfg;
  cfg.alpha = 0.5;
  cfg.degree = 4;
  cfg.threads = 2;
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

std::vector<double> perturbed_charges(const ParticleSystem& ps, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.5, 1.5);
  std::vector<double> q(ps.charges().begin(), ps.charges().end());
  for (double& v : q) v *= u(rng);
  return q;
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  // memcmp must not see the null data() of an empty vector (UBSan).
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// The engine's core contract: replaying a compiled plan is bitwise-equal to
// a fresh alpha-MAC traversal, potentials and error bounds alike.
TEST(EvalSession, ReplayMatchesFreshTraversalBitwise) {
  const ParticleSystem ps = clustered(2500, 11);
  const EvalConfig cfg = base_config();
  const std::vector<Vec3> targets = grid_targets(300, 7);

  engine::EvalSession session(Tree(ps), cfg);
  const EvalResult replay = session.evaluate_at(targets);

  const Tree fresh_tree(ps);
  ThreadPool pool(cfg.threads);
  const BarnesHutEvaluator fresh(fresh_tree, cfg, &pool);
  const EvalResult ref = fresh.evaluate_at(pool, targets);

  EXPECT_TRUE(bitwise_equal(ref.potential, replay.potential));
  EXPECT_TRUE(bitwise_equal(ref.error_bound, replay.error_bound));
  EXPECT_EQ(ref.stats.m2p_count, replay.stats.m2p_count);
  EXPECT_EQ(ref.stats.p2p_pairs, replay.stats.p2p_pairs);
  EXPECT_EQ(ref.stats.multipole_terms, replay.stats.multipole_terms);
  EXPECT_EQ(ref.stats.min_degree_used, replay.stats.min_degree_used);
  EXPECT_EQ(ref.stats.max_degree_used, replay.stats.max_degree_used);
}

TEST(EvalSession, SelfEvaluationMatchesFreshBitwise) {
  const ParticleSystem ps = clustered(2000, 13);
  const EvalConfig cfg = base_config();
  engine::EvalSession session(Tree(ps), cfg);
  const EvalResult replay = session.evaluate();
  const EvalResult ref = evaluate_barnes_hut(Tree(ps), cfg);
  EXPECT_TRUE(bitwise_equal(ref.potential, replay.potential));
  EXPECT_TRUE(bitwise_equal(ref.error_bound, replay.error_bound));
}

// After update_charges, the replay must equal a fresh evaluator fed the
// same charge override — the lazy multipole refresh path.
TEST(EvalSession, UpdateChargesMatchesFreshBitwise) {
  const ParticleSystem ps = clustered(2200, 17);
  const EvalConfig cfg = base_config();
  const std::vector<Vec3> targets = grid_targets(250, 23);

  engine::EvalSession session(Tree(ps), cfg);
  auto plan = session.compile(targets);
  (void)session.evaluate(*plan);  // epoch 1 build: refresh must rebuild after

  const Tree fresh_tree(ps);
  ThreadPool pool(cfg.threads);
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    const std::vector<double> q = perturbed_charges(ps, seed);
    session.update_charges(q);
    const EvalResult replay = session.evaluate(*plan);

    std::vector<double> sorted(q.size());
    const auto& orig = fresh_tree.original_index();
    for (std::size_t si = 0; si < orig.size(); ++si) sorted[si] = q[orig[si]];
    const BarnesHutEvaluator fresh(fresh_tree, cfg, &pool, sorted);
    const EvalResult ref = fresh.evaluate_at(pool, targets);
    EXPECT_TRUE(bitwise_equal(ref.potential, replay.potential)) << "seed=" << seed;
    EXPECT_TRUE(bitwise_equal(ref.error_bound, replay.error_bound)) << "seed=" << seed;
  }
}

TEST(EvalSession, BudgetEnforcedConfigReplaysBitwise) {
  const ParticleSystem ps = clustered(1500, 29);
  EvalConfig cfg = base_config();
  cfg.mode = DegreeMode::kAdaptive;
  cfg.enforce_budget = true;
  cfg.error_budget = 1e-3;
  const std::vector<Vec3> targets = grid_targets(200, 37);

  engine::EvalSession session(Tree(ps), cfg);
  const EvalResult replay = session.evaluate_at(targets);

  const Tree fresh_tree(ps);
  ThreadPool pool(cfg.threads);
  const BarnesHutEvaluator fresh(fresh_tree, cfg, &pool);
  const EvalResult ref = fresh.evaluate_at(pool, targets);
  EXPECT_TRUE(bitwise_equal(ref.potential, replay.potential));
  EXPECT_TRUE(bitwise_equal(ref.error_bound, replay.error_bound));
  EXPECT_EQ(ref.stats.budget_refinements, replay.stats.budget_refinements);
}

TEST(EvalSession, GradientConfigReplaysBitwise) {
  const ParticleSystem ps = clustered(1200, 41);
  EvalConfig cfg = base_config();
  cfg.compute_gradient = true;
  const std::vector<Vec3> targets = grid_targets(150, 43);

  engine::EvalSession session(Tree(ps), cfg);
  const EvalResult replay = session.evaluate_at(targets);

  const Tree fresh_tree(ps);
  ThreadPool pool(cfg.threads);
  const BarnesHutEvaluator fresh(fresh_tree, cfg, &pool);
  const EvalResult ref = fresh.evaluate_at(pool, targets);
  EXPECT_TRUE(bitwise_equal(ref.potential, replay.potential));
  ASSERT_EQ(ref.gradient.size(), replay.gradient.size());
  for (std::size_t i = 0; i < ref.gradient.size(); ++i) {
    EXPECT_EQ(ref.gradient[i].x, replay.gradient[i].x);
    EXPECT_EQ(ref.gradient[i].y, replay.gradient[i].y);
    EXPECT_EQ(ref.gradient[i].z, replay.gradient[i].z);
  }
}

TEST(EvalSession, RepeatedCompileHitsPlanCache) {
  const ParticleSystem ps = clustered(800, 47);
  const std::vector<Vec3> targets = grid_targets(100, 53);
  engine::EvalSession session(Tree(ps), base_config());
  auto p1 = session.compile(targets);
  auto p2 = session.compile(targets);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(session.cache().hits(), 1u);
  EXPECT_EQ(session.cache().misses(), 1u);
  EXPECT_EQ(session.cache().size(), 1u);

  // A different target set compiles a distinct plan.
  auto p3 = session.compile(grid_targets(100, 59));
  EXPECT_NE(p1.get(), p3.get());
  EXPECT_EQ(session.cache().size(), 2u);
}

TEST(EvalSession, ThrowPolicyRejectsNonFiniteTargets) {
  const ParticleSystem ps = clustered(500, 61);
  engine::EvalSession session(Tree(ps), base_config());
  std::vector<Vec3> targets = grid_targets(10, 67);
  targets[4].y = kNan;
  // The legacy wrapper surfaces the typed error as EngineError; the try_
  // API reports the same failure as a kNonFinite code without throwing.
  EXPECT_THROW((void)session.compile(targets), EngineError);
  auto r = session.try_compile(targets);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kNonFinite);
}

TEST(EvalSession, SanitizePolicySkipsNonFiniteTargets) {
  const ParticleSystem ps = clustered(600, 71);
  TreeConfig tcfg;
  tcfg.validation = ValidationPolicy::kSanitize;
  engine::EvalSession session(Tree(ps, tcfg), base_config());
  std::vector<Vec3> targets = grid_targets(20, 73);
  targets[3].x = kNan;
  auto plan = session.compile(targets);
  ASSERT_EQ(plan->skipped_targets.size(), 1u);
  EXPECT_EQ(plan->skipped_targets[0], 3u);
  const EvalResult r = session.evaluate(*plan);
  EXPECT_EQ(r.potential[3], 0.0);
  EXPECT_TRUE(std::isfinite(r.potential[2]));
}

TEST(EvalSession, RejectsBadChargeUpdates) {
  const ParticleSystem ps = clustered(300, 79);
  engine::EvalSession session(Tree(ps), base_config());
  std::vector<double> wrong_size(ps.size() + 1, 1.0);
  EXPECT_THROW(session.update_charges(wrong_size), EngineError);
  auto size_err = session.try_update_charges(wrong_size);
  ASSERT_FALSE(size_err.ok());
  EXPECT_EQ(size_err.error().code, ErrorCode::kInvalidArgument);
  std::vector<double> bad(ps.size(), 1.0);
  bad[7] = kNan;
  EXPECT_THROW(session.update_charges(bad), EngineError);
  auto nan_err = session.try_update_charges(bad);
  ASSERT_FALSE(nan_err.ok());
  EXPECT_EQ(nan_err.error().code, ErrorCode::kNonFinite);
  // Rejected updates leave the session's charges untouched: the next
  // evaluate still serves the construction-time charges, finite throughout.
  const EvalResult r = session.evaluate(*session.compile_self());
  for (const double phi : r.potential) EXPECT_TRUE(std::isfinite(phi));
}

TEST(EvalSession, ForeignPlanShapeRejected) {
  const ParticleSystem ps = clustered(300, 83);
  engine::EvalSession session(Tree(ps), base_config());
  engine::EvalPlan bogus;
  bogus.targets = grid_targets(5, 89);  // offsets missing
  EXPECT_THROW((void)session.evaluate(bogus), EngineError);
  auto r = session.try_evaluate(bogus);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
}

// A plan compiled by a session over a larger tree references node ids past
// the end of this session's tables; replay and batch must reject it before
// touching them (the ASan job keeps this honest).
TEST(EvalSession, PlanFromAnotherSessionRejected) {
  engine::EvalSession big(Tree(clustered(2000, 97)), base_config());
  engine::EvalSession small(Tree(clustered(300, 83)), base_config());
  const std::vector<Vec3> targets = grid_targets(64, 101);
  const auto foreign = big.try_compile(targets).value_or_throw();
  ASSERT_GT(foreign->m2p_nodes.back(), static_cast<std::int32_t>(small.tree().nodes().size()));

  auto r = small.try_evaluate(*foreign);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
  const std::vector<double> q(small.tree().source_size(), 1.0);
  const std::span<const double> column(q);
  auto b = small.try_evaluate_batch(*foreign, {&column, 1});
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.error().code, ErrorCode::kInvalidArgument);

  // The owning session still replays its plan.
  EXPECT_TRUE(big.try_evaluate(*foreign).ok());
}

}  // namespace
}  // namespace treecode
