#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "core/treecode.hpp"
#include "dist/distributions.hpp"
#include "engine/eval_session.hpp"
#include "util/fault_inject.hpp"

namespace treecode {
namespace {

/// All tests here drive the TREECODE_FAULT_INJECT harness; in ungated
/// builds the sites compile to `return false` and there is nothing to test.
class FaultInject : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::kEnabled) {
      GTEST_SKIP() << "built without TREECODE_FAULT_INJECT";
    }
    fault::reset();
    fault::set_seed(0x5eed);
  }
  void TearDown() override { fault::reset(); }
};

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

// Reservation ordinals per public call (the harness's instruction set):
// compile = 1 plan commit; a refresh that first builds multipoles adds 1
// coefficient commit; degraded serve adds 1 traversal reservation.

TEST_F(FaultInject, FirstAllocationDeniedDegradesToTraversal) {
  const ParticleSystem ps = clustered(800, 11);
  engine::EvalSession session(Tree(ps), base_config());
  const std::vector<Vec3> targets = grid_targets(100, 13);

  const EvalResult clean = session.evaluate_at(targets);
  session.cache().clear();

  fault::arm_nth(fault::Site::kEngineAlloc, 1);  // deny the plan commit
  auto r = session.try_evaluate_at(targets);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().stats.served_rung, ServeRung::kTraversal);
  EXPECT_EQ(fault::fired(fault::Site::kEngineAlloc), 1u);
  EXPECT_TRUE(session.governor().last_denial_was_fault());
  // The degraded serve is the same traversal the plan encodes.
  EXPECT_TRUE(bitwise_equal(clean.potential, r.value().potential));
  EXPECT_TRUE(bitwise_equal(clean.error_bound, r.value().error_bound));
}

TEST_F(FaultInject, EveryAllocationDeniedServesExactDirect) {
  const ParticleSystem ps = clustered(400, 23);
  engine::EvalSession session(Tree(ps), base_config());
  fault::arm_every(fault::Site::kEngineAlloc);
  auto r = session.try_evaluate_at(grid_targets(30, 29));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().stats.served_rung, ServeRung::kDirect);
  for (const double b : r.value().error_bound) EXPECT_EQ(b, 0.0);
}

TEST_F(FaultInject, RungChoiceDeterministicAcrossThreadCounts) {
  const ParticleSystem ps = clustered(600, 31);
  const std::vector<Vec3> targets = grid_targets(80, 37);
  for (const std::uint64_t nth : {std::uint64_t{1}, std::uint64_t{2}}) {
    ServeRung first{};
    std::vector<double> phi_first;
    for (const unsigned threads : {1u, 4u}) {
      EvalConfig cfg = base_config();
      cfg.threads = threads;
      engine::EvalSession session(Tree(ps), cfg);
      fault::reset();
      fault::arm_nth(fault::Site::kEngineAlloc, nth);
      auto r = session.try_evaluate_at(targets);
      ASSERT_TRUE(r.ok()) << "nth " << nth << " threads " << threads;
      if (threads == 1u) {
        first = r.value().stats.served_rung;
        phi_first = r.value().potential;
      } else {
        EXPECT_EQ(r.value().stats.served_rung, first) << "nth " << nth;
        EXPECT_TRUE(bitwise_equal(phi_first, r.value().potential)) << "nth " << nth;
      }
    }
  }
}

TEST_F(FaultInject, NanChargeCaughtAsNonFiniteOutcome) {
  const ParticleSystem ps = clustered(500, 41);
  engine::EvalSession session(Tree(ps), base_config());
  auto plan = session.try_compile_self();
  ASSERT_TRUE(plan.ok());

  std::vector<double> q(ps.charges().begin(), ps.charges().end());
  fault::arm_nth(fault::Site::kNanCharge, 1);
  // The update passes input validation — the poison lands after it.
  ASSERT_TRUE(session.try_update_charges(q).ok());
  EXPECT_EQ(fault::fired(fault::Site::kNanCharge), 1u);

  auto r = session.try_evaluate(*plan.value());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kNonFinite);

  // A clean update recovers the session: the poisoned charge is overwritten.
  ASSERT_TRUE(session.try_update_charges(q).ok());
  auto recovered = session.try_evaluate(*plan.value());
  ASSERT_TRUE(recovered.ok());
}

TEST_F(FaultInject, CacheVerifyMissForcesRecompile) {
  const ParticleSystem ps = clustered(500, 43);
  engine::EvalSession session(Tree(ps), base_config());
  const std::vector<Vec3> targets = grid_targets(50, 47);
  auto p1 = session.try_compile(targets);
  ASSERT_TRUE(p1.ok());

  fault::arm_nth(fault::Site::kCacheVerifyMiss, 1);
  auto p2 = session.try_compile(targets);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(fault::fired(fault::Site::kCacheVerifyMiss), 1u);
  // The discarded hit forced a fresh compile of an identical plan.
  EXPECT_NE(p1.value().get(), p2.value().get());
  EXPECT_EQ(p1.value()->key, p2.value()->key);
  EXPECT_EQ(p1.value()->num_entries(), p2.value()->num_entries());

  // Disarmed again: the recompiled plan is served from cache.
  auto p3 = session.try_compile(targets);
  ASSERT_TRUE(p3.ok());
  EXPECT_EQ(p2.value().get(), p3.value().get());
}

TEST_F(FaultInject, SlowWorkerTripsDeadline) {
  const ParticleSystem ps = clustered(1000, 53);
  EvalConfig cfg = base_config();
  cfg.deadline_seconds = 5e-3;  // a few stalled blocks blow it; polling can't
  cfg.block_size = 16;
  engine::EvalSession session(Tree(ps), cfg);
  const std::vector<Vec3> targets = grid_targets(400, 59);
  auto plan = session.try_compile(targets);
  ASSERT_TRUE(plan.ok());
  // Warm the multipoles so the deadline window covers only the replay sweep.
  ASSERT_TRUE(session.try_evaluate(*plan.value()).ok());

  fault::arm_every(fault::Site::kSlowWorker);
  auto r = session.try_evaluate(*plan.value());
  fault::disarm(fault::Site::kSlowWorker);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kDeadline);
  EXPECT_GT(fault::fired(fault::Site::kSlowWorker), 0u);
}

TEST_F(FaultInject, RandomModeReplaysWithSeed) {
  const ParticleSystem ps = clustered(300, 61);
  const std::vector<Vec3> targets = grid_targets(40, 67);
  // Two sessions, same seed and arming: identical rung and fire counts.
  std::uint64_t fired_first = 0;
  ServeRung rung_first{};
  for (int round = 0; round < 2; ++round) {
    fault::reset();
    fault::set_seed(0xabcdef);
    fault::arm_random(fault::Site::kEngineAlloc, 0.5);
    engine::EvalSession session(Tree(ps), base_config());
    auto r = session.try_evaluate_at(targets);
    ASSERT_TRUE(r.ok());
    if (round == 0) {
      fired_first = fault::fired(fault::Site::kEngineAlloc);
      rung_first = r.value().stats.served_rung;
    } else {
      EXPECT_EQ(fault::fired(fault::Site::kEngineAlloc), fired_first);
      EXPECT_EQ(r.value().stats.served_rung, rung_first);
    }
  }
}

TEST_F(FaultInject, FiringsAreCounted) {
  fault::arm_nth(fault::Site::kEngineAlloc, 2);
  EXPECT_FALSE(fault::fire(fault::Site::kEngineAlloc));
  EXPECT_TRUE(fault::fire(fault::Site::kEngineAlloc));
  // kNth is one-shot: it disarms itself after firing.
  EXPECT_FALSE(fault::fire(fault::Site::kEngineAlloc));
  EXPECT_EQ(fault::hits(fault::Site::kEngineAlloc), 3u);
  EXPECT_EQ(fault::fired(fault::Site::kEngineAlloc), 1u);
}

}  // namespace
}  // namespace treecode
