#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "analysis/invariants.hpp"
#include "core/treecode.hpp"
#include "dist/distributions.hpp"
#include "engine/eval_session.hpp"

namespace treecode {
namespace {

EvalConfig base_config() {
  EvalConfig cfg;
  cfg.alpha = 0.5;
  cfg.degree = 4;
  cfg.threads = 2;
  return cfg;
}

std::vector<Vec3> grid_targets(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-0.2, 1.2);
  std::vector<Vec3> t(n);
  for (Vec3& x : t) x = {u(rng), u(rng), u(rng)};
  return t;
}

/// A compiled plan plus everything check_plan needs to audit it.
struct Compiled {
  engine::EvalSession session;
  engine::EvalPlan plan;  // mutable copy of the compiled plan

  Compiled(std::size_t n, unsigned seed, const EvalConfig& cfg = base_config())
      : session(Tree(dist::overlapped_gaussians(n, 3, seed, 0.08,
                                                dist::ChargeModel::kMixedSign)),
                cfg) {
    plan = *session.compile(grid_targets(120, seed + 1));
  }

  [[nodiscard]] analysis::InvariantReport check() const {
    return analysis::check_plan(plan, session.tree(), session.degrees(),
                                session.config());
  }
};

TEST(CheckPlan, CleanPlanPasses) {
  const Compiled c(1500, 7);
  const analysis::InvariantReport report = c.check();
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(CheckPlan, CleanSelfAndBudgetPlansPass) {
  EvalConfig cfg = base_config();
  cfg.mode = DegreeMode::kAdaptive;
  cfg.enforce_budget = true;
  cfg.error_budget = 1e-3;
  Compiled c(1200, 11, cfg);
  c.plan = *c.session.compile_self();
  EXPECT_TRUE(c.check().ok());
}

TEST(CheckPlan, DetectsMacViolation) {
  Compiled c(1500, 13);
  // Rewrite the first M2P entry to point at the root: the root contains
  // every target, so the MAC cannot hold there.
  for (std::size_t i = 0; i < c.plan.entries.size(); ++i) {
    if (!engine::EvalPlan::is_p2p(c.plan.entries[i])) {
      c.plan.entries[i] = engine::EvalPlan::make_entry(0, false);
      break;
    }
  }
  const analysis::InvariantReport report = c.check();
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("MAC"), std::string::npos) << report.summary();
}

TEST(CheckPlan, DetectsNonLeafP2P) {
  Compiled c(1500, 17);
  for (std::size_t i = 0; i < c.plan.entries.size(); ++i) {
    if (!engine::EvalPlan::is_p2p(c.plan.entries[i])) {
      // Root is not a leaf for n >> leaf_capacity.
      c.plan.entries[i] = engine::EvalPlan::make_entry(0, true);
      break;
    }
  }
  const analysis::InvariantReport report = c.check();
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("P2P"), std::string::npos) << report.summary();
}

TEST(CheckPlan, DetectsCoverageGap) {
  Compiled c(1500, 19);
  // Dropping the last entry of target 0 leaves a hole in its source
  // partition (and breaks its recorded cost).
  ASSERT_GT(c.plan.offsets[1], c.plan.offsets[0]);
  c.plan.entries.erase(c.plan.entries.begin() +
                       static_cast<std::ptrdiff_t>(c.plan.offsets[1]) - 1);
  if (!c.plan.entry_bounds.empty()) c.plan.entry_bounds.pop_back();
  for (std::size_t i = 1; i < c.plan.offsets.size(); ++i) c.plan.offsets[i] -= 1;
  const analysis::InvariantReport report = c.check();
  EXPECT_FALSE(report.ok());
}

TEST(CheckPlan, DetectsStatsMismatch) {
  Compiled c(1500, 23);
  c.plan.stats.multipole_terms += 1;
  const analysis::InvariantReport report = c.check();
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("multipole_terms"), std::string::npos)
      << report.summary();
}

TEST(CheckPlan, DetectsRefreshSetMismatch) {
  Compiled c(1500, 29);
  ASSERT_FALSE(c.plan.m2p_nodes.empty());
  // Omitting a referenced node breaks the lazy-refresh contract: its stale
  // multipole would never rebuild.
  c.plan.m2p_nodes.pop_back();
  EXPECT_FALSE(c.check().ok());
}

TEST(CheckPlan, DetectsTargetCostTampering) {
  Compiled c(1500, 31);
  ASSERT_FALSE(c.plan.target_cost.empty());
  c.plan.target_cost[0] += 5;
  EXPECT_FALSE(c.check().ok());
}

TEST(CheckPlan, AssertMacroThrowsWithContext) {
  Compiled c(1000, 43);
  c.plan.stats.m2p_count += 1;
  EXPECT_THROW(
      analysis::assert_plan_invariants(c.plan, c.session.tree(), c.session.degrees(),
                                       c.session.config(), "unit-test"),
      std::logic_error);
}

}  // namespace
}  // namespace treecode
