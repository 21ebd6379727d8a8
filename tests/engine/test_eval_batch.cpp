#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "dist/distributions.hpp"
#include "engine/eval_session.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "tree/octree.hpp"

namespace treecode {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

EvalConfig base_config(unsigned threads) {
  EvalConfig cfg;
  cfg.alpha = 0.5;
  cfg.degree = 4;
  cfg.mode = DegreeMode::kAdaptive;
  cfg.threads = threads;
  cfg.track_error_bounds = true;
  return cfg;
}

std::vector<Vec3> grid_targets(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-0.2, 1.2);
  std::vector<Vec3> t(n);
  for (Vec3& x : t) x = {u(rng), u(rng), u(rng)};
  return t;
}

std::vector<std::vector<double>> distinct_columns(std::size_t k, std::size_t n,
                                                  std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-1.5, 1.5);
  std::vector<std::vector<double>> cols(k, std::vector<double>(n));
  for (auto& col : cols) {
    for (double& q : col) q = u(rng);
  }
  return cols;
}

std::vector<std::span<const double>> as_spans(
    const std::vector<std::vector<double>>& cols) {
  std::vector<std::span<const double>> spans;
  spans.reserve(cols.size());
  for (const auto& col : cols) spans.emplace_back(col);
  return spans;
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The tentpole contract: each column of a k-wide batched replay is
// bitwise-identical to the single-RHS replay of that column — at every
// thread count and every batch width. Batch composition can never change a
// column's floating-point result.
TEST(EvalBatch, ColumnsBitwiseMatchSingleRhsAtEveryThreadCountAndWidth) {
  const ParticleSystem ps = dist::overlapped_gaussians(
      2000, 3, 19, 0.08, dist::ChargeModel::kMixedSign);
  const std::vector<Vec3> targets = grid_targets(257, 5);
  for (const unsigned threads : {1u, 2u, 4u}) {
    engine::EvalSession session(Tree(ps), base_config(threads));
    const auto plan = session.try_compile(targets).value_or_throw();
    for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{5}, std::size_t{8}}) {
      const auto cols = distinct_columns(k, ps.size(), 100 + k);
      const auto batch =
          session.try_evaluate_batch(*plan, as_spans(cols)).value_or_throw();
      ASSERT_EQ(batch.size(), k);
      for (std::size_t c = 0; c < k; ++c) {
        session.try_update_charges(cols[c]).value_or_throw();
        const EvalResult single = session.try_evaluate(*plan).value_or_throw();
        EXPECT_TRUE(bitwise_equal(batch[c].potential, single.potential))
            << "threads=" << threads << " k=" << k << " column=" << c;
        EXPECT_TRUE(bitwise_equal(batch[c].error_bound, single.error_bound))
            << "threads=" << threads << " k=" << k << " column=" << c;
      }
    }
  }
}

// Self plans scatter back to original particle order; the batched path
// must apply the identical permutation.
TEST(EvalBatch, SelfPlanColumnsBitwiseMatchSingleRhs) {
  const ParticleSystem ps = dist::uniform_cube(1500, 23);
  engine::EvalSession session(Tree(ps), base_config(2));
  const auto plan = session.try_compile_self().value_or_throw();
  const auto cols = distinct_columns(4, ps.size(), 7);
  const auto batch =
      session.try_evaluate_batch(*plan, as_spans(cols)).value_or_throw();
  for (std::size_t c = 0; c < 4; ++c) {
    session.try_update_charges(cols[c]).value_or_throw();
    const EvalResult single = session.try_evaluate(*plan).value_or_throw();
    EXPECT_TRUE(bitwise_equal(batch[c].potential, single.potential)) << c;
    EXPECT_TRUE(bitwise_equal(batch[c].error_bound, single.error_bound)) << c;
  }
}

// The batched path reads columns directly; the session's own charge state
// (and its refresh epochs) must be left exactly as it was.
TEST(EvalBatch, BatchLeavesSessionChargesUntouched) {
  const ParticleSystem ps = dist::uniform_cube(800, 3);
  engine::EvalSession session(Tree(ps), base_config(2));
  const auto plan = session.try_compile_self().value_or_throw();
  const std::vector<double> before(session.sorted_charges().begin(),
                                   session.sorted_charges().end());
  const auto cols = distinct_columns(3, ps.size(), 99);
  (void)session.try_evaluate_batch(*plan, as_spans(cols)).value_or_throw();
  EXPECT_TRUE(bitwise_equal(before, session.sorted_charges()));
}

TEST(EvalBatch, RejectsEmptyWrongSizedAndNonFiniteColumns) {
  const ParticleSystem ps = dist::uniform_cube(500, 5);
  engine::EvalSession session(Tree(ps), base_config(1));
  const auto plan = session.try_compile_self().value_or_throw();

  const auto empty = session.try_evaluate_batch(*plan, {});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.error().code, ErrorCode::kInvalidArgument);

  std::vector<double> wrong(ps.size() - 1, 1.0);
  const std::vector<std::span<const double>> bad_size{wrong};
  const auto sized = session.try_evaluate_batch(*plan, bad_size);
  ASSERT_FALSE(sized.ok());
  EXPECT_EQ(sized.error().code, ErrorCode::kInvalidArgument);

  std::vector<double> good(ps.size(), 1.0);
  std::vector<double> poisoned(ps.size(), 1.0);
  poisoned[7] = kNan;
  const std::vector<std::span<const double>> cols{good, poisoned};
  const auto nonfinite = session.try_evaluate_batch(*plan, cols);
  ASSERT_FALSE(nonfinite.ok());
  EXPECT_EQ(nonfinite.error().code, ErrorCode::kNonFinite);
  EXPECT_NE(nonfinite.error().message.find("column 1"), std::string::npos);
}

// Gradient configs fall back to the sequential per-column path — results
// must still match the single-RHS replays exactly.
TEST(EvalBatch, GradientConfigFallsBackToSequentialWithIdenticalResults) {
  const ParticleSystem ps = dist::uniform_cube(600, 11);
  EvalConfig cfg = base_config(2);
  cfg.compute_gradient = true;
  engine::EvalSession session(Tree(ps), cfg);
  const auto plan = session.try_compile_self().value_or_throw();
  const std::uint64_t fallbacks_before =
      obs::registry().counter(obs::metric::kEngineBatchFallbacks).value();
  const auto cols = distinct_columns(2, ps.size(), 31);
  const auto batch =
      session.try_evaluate_batch(*plan, as_spans(cols)).value_or_throw();
  EXPECT_GT(obs::registry().counter(obs::metric::kEngineBatchFallbacks).value(),
            fallbacks_before);
  for (std::size_t c = 0; c < 2; ++c) {
    session.try_update_charges(cols[c]).value_or_throw();
    const EvalResult single = session.try_evaluate(*plan).value_or_throw();
    EXPECT_TRUE(bitwise_equal(batch[c].potential, single.potential)) << c;
    ASSERT_EQ(batch[c].gradient.size(), single.gradient.size());
  }
}

// The satellite fix: with one PlanCache per tenant session, the
// engine.plan_bytes gauge must aggregate across live
// caches and shed a session's contribution the moment it is destroyed —
// not strand it (stale attribution) or clobber a neighbour's total.
TEST(EvalBatch, PlanBytesGaugeShedsDestroyedSessionsContribution) {
  obs::Gauge& gauge = obs::registry().gauge(obs::metric::kEnginePlanBytes);
  const double baseline = gauge.value();

  const ParticleSystem ps_a = dist::uniform_cube(700, 1);
  const ParticleSystem ps_b = dist::uniform_cube(900, 2);
  auto session_a =
      std::make_unique<engine::EvalSession>(Tree(ps_a), base_config(1));
  (void)session_a->try_compile_self().value_or_throw();
  const double with_a = gauge.value();
  EXPECT_GT(with_a, baseline);

  auto session_b =
      std::make_unique<engine::EvalSession>(Tree(ps_b), base_config(1));
  (void)session_b->try_compile_self().value_or_throw();
  const double with_both = gauge.value();
  EXPECT_GT(with_both, with_a);

  // Destroying B must subtract exactly B's share, leaving A's intact —
  // a per-cache `set` would instead leave the gauge at B's last total.
  session_b.reset();
  EXPECT_DOUBLE_EQ(gauge.value(), with_a);
  session_a.reset();
  EXPECT_DOUBLE_EQ(gauge.value(), baseline);
}

}  // namespace
}  // namespace treecode
