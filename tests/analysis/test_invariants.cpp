#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "analysis/invariants.hpp"
#include "core/treecode.hpp"
#include "dist/distributions.hpp"
#include "obs/reqtrace.hpp"
#include "obs/spans.hpp"

namespace treecode {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

ParticleSystem clustered(std::size_t n, unsigned seed) {
  return dist::overlapped_gaussians(n, 3, seed, 0.08, dist::ChargeModel::kMixedSign);
}

// ---------------------------------------------------------------------------
// Clean structures pass.

TEST(Invariants, CleanTreesPassAcrossConfigurations) {
  const ParticleSystem ps = clustered(1500, 42);
  for (const Ordering ordering : {Ordering::kHilbert, Ordering::kMorton}) {
    for (const bool collapse : {false, true}) {
      for (const std::size_t leaf : {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
        TreeConfig cfg;
        cfg.ordering = ordering;
        cfg.collapse_chains = collapse;
        cfg.leaf_capacity = leaf;
        const Tree tree(ps, cfg);
        const analysis::InvariantReport report = analysis::check_tree(tree);
        EXPECT_TRUE(report.ok()) << report.summary();
        EXPECT_EQ(report.nodes_checked, tree.num_nodes());
      }
    }
  }
}

TEST(Invariants, EmptyAndSingleParticleTreesPass) {
  EXPECT_TRUE(analysis::check_tree(Tree(ParticleSystem{})).ok());
  ParticleSystem one;
  one.add({0.25, 0.5, 0.75}, 3.0);
  EXPECT_TRUE(analysis::check_tree(Tree(one)).ok());
}

TEST(Invariants, SanitizedTreePasses) {
  ParticleSystem ps = clustered(400, 7);
  ps.add({kNan, 0.0, 0.0}, 1.0);
  const Tree tree(ps, {.validation = ValidationPolicy::kSanitize});
  const analysis::InvariantReport report = analysis::check_tree(tree);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Invariants, DegreeTablesPassForEveryModeLawAndReference) {
  const Tree tree(clustered(1200, 5));
  for (const DegreeMode mode : {DegreeMode::kFixed, DegreeMode::kAdaptive}) {
    for (const DegreeLaw law : {DegreeLaw::kCharge, DegreeLaw::kChargeOverSize}) {
      for (const DegreeReference ref :
           {DegreeReference::kMinLeaf, DegreeReference::kMeanLeaf}) {
        EvalConfig cfg;
        cfg.mode = mode;
        cfg.law = law;
        cfg.reference = ref;
        cfg.degree = 3;
        const DegreeAssignment degrees = assign_degrees(tree, cfg);
        const analysis::InvariantReport report = analysis::check_degrees(tree, degrees, cfg);
        EXPECT_TRUE(report.ok()) << report.summary();
      }
    }
  }
}

TEST(Invariants, EvaluationResultsPassForAllMethods) {
  const Tree tree(clustered(800, 11));
  EvalConfig cfg;
  cfg.mode = DegreeMode::kAdaptive;
  cfg.degree = 3;
  cfg.compute_gradient = true;
  cfg.track_error_bounds = true;
  const DegreeAssignment degrees = assign_degrees(tree, cfg);
  for (const Method m : {Method::kBarnesHut, Method::kFmm, Method::kDirect}) {
    EvalConfig method_cfg = cfg;
    if (m != Method::kBarnesHut) method_cfg.track_error_bounds = false;
    const EvalResult r = evaluate_potentials(tree, method_cfg, m);
    const analysis::InvariantReport report =
        analysis::check_eval_result(r, method_cfg, tree.source_size(), &degrees);
    EXPECT_TRUE(report.ok()) << report.summary();
  }
}

TEST(Invariants, BudgetEnforcedResultPasses) {
  const Tree tree(clustered(600, 13));
  EvalConfig cfg;
  cfg.enforce_budget = true;
  cfg.error_budget = 1e-3;
  const EvalResult r = evaluate_potentials(tree, cfg);
  const analysis::InvariantReport report =
      analysis::check_eval_result(r, cfg, tree.source_size());
  EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------------------------
// Corruption is detected. check_nodes takes an explicit node array so these
// tests can tamper with copies of a genuine tree's nodes.

class CorruptionTest : public ::testing::Test {
 protected:
  CorruptionTest() : tree_(clustered(700, 23)), nodes_(tree_.nodes()) {}

  /// First internal node with at least 2 children (guaranteed to exist at
  /// this size), for child-topology tampering.
  std::size_t internal_node() const {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!nodes_[i].is_leaf() && nodes_[i].num_children >= 2) return i;
    }
    ADD_FAILURE() << "no internal node in fixture tree";
    return 0;
  }

  analysis::InvariantReport check() const {
    return analysis::check_nodes(nodes_, tree_.positions(), tree_.charges());
  }

  Tree tree_;
  std::vector<TreeNode> nodes_;
};

TEST_F(CorruptionTest, CleanCopyPasses) { EXPECT_TRUE(check().ok()); }

TEST_F(CorruptionTest, TamperedAbsChargeDetected) {
  nodes_[0].abs_charge *= 1.5;
  const auto report = check();
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("abs_charge"), std::string::npos) << report.summary();
}

TEST_F(CorruptionTest, TamperedNetChargeDetected) {
  nodes_[internal_node()].net_charge += 0.5;
  EXPECT_FALSE(check().ok());
}

TEST_F(CorruptionTest, ShrunkBoundingSphereDetected) {
  // A radius that no longer bounds its members breaks the MAC's premise.
  TreeNode& node = nodes_[0];
  node.radius *= 0.5;
  const auto report = check();
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("outside radius"), std::string::npos) << report.summary();
}

TEST_F(CorruptionTest, InflatedBoundingSphereDetected) {
  // Sound but not tight: an inflated radius silently rejects MAC-acceptable
  // interactions (pure performance loss) — the walk still flags it.
  nodes_[0].radius *= 4.0;
  const auto report = check();
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("not tight"), std::string::npos) << report.summary();
}

TEST_F(CorruptionTest, DisplacedExpansionCenterDetected) {
  TreeNode& node = nodes_[0];
  node.center = node.center + Vec3{10.0, 0.0, 0.0};
  EXPECT_FALSE(check().ok());
}

TEST_F(CorruptionTest, NonFiniteRadiusDetected) {
  nodes_[0].radius = kNan;
  EXPECT_FALSE(check().ok());
}

TEST_F(CorruptionTest, BrokenChildPartitionDetected) {
  const std::size_t i = internal_node();
  TreeNode& child = nodes_[static_cast<std::size_t>(nodes_[i].first_child)];
  child.end -= 1;  // children no longer tile the parent range
  EXPECT_FALSE(check().ok());
}

TEST_F(CorruptionTest, BrokenParentLinkDetected) {
  const std::size_t i = internal_node();
  nodes_[static_cast<std::size_t>(nodes_[i].first_child)].parent = -1;
  EXPECT_FALSE(check().ok());
}

TEST_F(CorruptionTest, NonIncreasingLevelDetected) {
  const std::size_t i = internal_node();
  nodes_[static_cast<std::size_t>(nodes_[i].first_child)].level = nodes_[i].level;
  EXPECT_FALSE(check().ok());
}

TEST_F(CorruptionTest, OutOfRangeChildIndexDetected) {
  nodes_[internal_node()].first_child = static_cast<int>(nodes_.size());
  EXPECT_FALSE(check().ok());
}

TEST(InvariantsDegrees, TamperedDegreeEntryDetected) {
  const Tree tree(clustered(500, 31));
  EvalConfig cfg;
  cfg.mode = DegreeMode::kAdaptive;
  DegreeAssignment degrees = assign_degrees(tree, cfg);
  degrees.degree[tree.num_nodes() / 2] += 2;
  EXPECT_FALSE(analysis::check_degrees(tree, degrees, cfg).ok());
}

TEST(InvariantsDegrees, WrongReferenceChargeDetected) {
  const Tree tree(clustered(500, 37));
  EvalConfig cfg;
  cfg.mode = DegreeMode::kAdaptive;
  DegreeAssignment degrees = assign_degrees(tree, cfg);
  degrees.reference_charge *= 3.0;
  EXPECT_FALSE(analysis::check_degrees(tree, degrees, cfg).ok());
}

TEST(InvariantsEval, NonFinitePotentialDetected) {
  EvalResult r;
  r.potential = {1.0, kNan, 3.0};
  EvalConfig cfg;
  EXPECT_FALSE(analysis::check_eval_result(r, cfg, 3).ok());
}

TEST(InvariantsEval, SizeMismatchDetected) {
  EvalResult r;
  r.potential = {1.0, 2.0};
  EvalConfig cfg;
  EXPECT_FALSE(analysis::check_eval_result(r, cfg, 3).ok());
}

TEST(InvariantsEval, BudgetOverflowDetected) {
  EvalResult r;
  r.potential = {1.0};
  r.error_bound = {0.5};
  EvalConfig cfg;
  cfg.enforce_budget = true;
  cfg.error_budget = 1e-6;
  EXPECT_FALSE(analysis::check_eval_result(r, cfg, 1).ok());
}

TEST(InvariantsEval, RequireThrowsWithContextPrefix) {
  EvalResult r;
  r.potential = {kNan};
  EvalConfig cfg;
  const analysis::InvariantReport report = analysis::check_eval_result(r, cfg, 1);
  try {
    analysis::require(report, "test-context");
    FAIL() << "require() must throw on a failing report";
  } catch (const analysis::InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("test-context"), std::string::npos);
    EXPECT_FALSE(e.report().ok());
  }
}

TEST(InvariantsEval, RequireFailureKeepsItsRequestTrace) {
  // The throw unwinds the request scope with a default-healthy record;
  // require()'s trigger is what keeps that trace.
  namespace rt = obs::reqtrace;
  rt::reset();
  rt::enable();  // healthy traces sample at rate 0
  EvalResult r;
  r.potential = {kNan};
  const analysis::InvariantReport report = analysis::check_eval_result(r, EvalConfig{}, 1);
  rt::TraceContext ctx;
  try {
    const rt::RequestScope scope(obs::span::kReqEngineEvaluatePlan);
    ctx = scope.context();
    analysis::require(report, "test-context");
  } catch (const analysis::InvariantError&) {
  }
  const std::vector<rt::RetainedTrace> retained = rt::retained();
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_EQ(retained[0].trace_lo, ctx.trace_lo);
  EXPECT_STREQ(retained[0].reason, "forced");
  bool recorded = false;
  for (const rt::SpanRecord& e : rt::spans()) {
    if (e.kind == rt::SpanKind::kEvent && std::string(e.name) == "test-context") {
      recorded = e.value == static_cast<double>(report.violations.size());
    }
  }
  EXPECT_TRUE(recorded);
  rt::reset();
}

TEST(InvariantsEval, RequirePassesCleanReport) {
  EvalResult r;
  r.potential = {1.0};
  EvalConfig cfg;
  EXPECT_NO_THROW(analysis::require(analysis::check_eval_result(r, cfg, 1), "ctx"));
}

}  // namespace
}  // namespace treecode
