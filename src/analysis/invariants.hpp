#pragma once

/// \file invariants.hpp
/// Debug-mode structural invariant checker for the octree and the
/// evaluators built on it.
///
/// The paper's adaptive-degree guarantee (Theorem 3) is only as good as the
/// cluster bookkeeping behind it: the degree law reads each node's
/// aggregate charge A and radius a, and the MAC reads the bounding-sphere
/// geometry. A silent aggregation bug — a node whose A no longer equals the
/// sum of its members' |q_i|, a "bounding" sphere that fails to bound —
/// does not crash; it quietly degrades accuracy in a way that is
/// indistinguishable from legitimate truncation error in benchmarks. This
/// module makes those bugs loud.
///
/// Three independent check families, each returning an InvariantReport:
///
///  * check_tree      — octree structure: parent/child index topology,
///    particle-range partitioning, per-cluster charge conservation
///    (A = sum |q_i|, Q = sum q_i, and children's aggregates summing to the
///    parent's), bounding-sphere containment of every member and of every
///    child's expansion center, MAC geometry consistency (radius bounded by
///    the cell diagonal, finite centers inside the cell);
///  * check_degrees   — the Theorem-3 degree table: every entry matches the
///    law recomputed from the node's metric, clamps respected, and (under
///    DegreeLaw::kCharge, where A is monotone up the tree) parent degree
///    >= child degree;
///  * check_eval_result — an evaluation's output: result vector sizes,
///    finiteness, error bounds within the enforced budget, degree-used
///    stats within the assignment's range;
///  * check_plan      — a compiled engine::EvalPlan: every M2P entry
///    satisfies the alpha-MAC at its target, every P2P entry is a leaf,
///    the per-target entry lists cover every source particle exactly once
///    (P2P union M2P is an exact partition), budget-bound accumulation
///    stays within the enforced budget, the M2P refresh set matches the
///    entries, and the plan's cached statistics agree with a recount. The
///    degree table itself is delegated to check_degrees.
///
/// Configure with -DTREECODE_CHECK_INVARIANTS=ON and the tree builder plus
/// all four evaluators (Barnes-Hut, dipole Barnes-Hut, FMM, direct) call
/// these automatically, throwing analysis::InvariantError on the first
/// violating walk. The functions are always compiled and callable — the
/// macro only controls the automatic wiring — so tests exercise them in
/// every build flavor.

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/degree_policy.hpp"
#include "tree/octree.hpp"

namespace treecode::engine {
struct EvalPlan;  // engine/eval_plan.hpp; forward-declared to avoid a cycle
}

namespace treecode::analysis {

/// Everything one invariant walk found. Empty `violations` means the
/// structure is sound.
struct InvariantReport {
  std::vector<std::string> violations;
  std::size_t nodes_checked = 0;
  std::size_t particles_checked = 0;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }

  /// One line per violation (capped at 20 in the thrown message so a
  /// corrupted tree of a million nodes stays readable).
  [[nodiscard]] std::string summary() const;

  void add(std::string v) { violations.push_back(std::move(v)); }
};

/// Thrown by the assert_* entry points when a walk finds violations.
class InvariantError : public std::logic_error {
 public:
  explicit InvariantError(const InvariantReport& report);
  [[nodiscard]] const InvariantReport& report() const noexcept { return report_; }

 private:
  InvariantReport report_;
};

/// Octree structural walk over an explicit node array (the testable core:
/// tests corrupt copies of a real tree's nodes to prove detection).
/// `positions`/`charges` are in the tree's sorted particle order.
InvariantReport check_nodes(std::span<const TreeNode> nodes, std::span<const Vec3> positions,
                            std::span<const double> charges);

/// check_nodes over a built Tree, plus Tree-level aggregates (height,
/// level_counts, leaf charge statistics) recomputed and compared.
InvariantReport check_tree(const Tree& tree);

/// Degree-table consistency: every node's degree re-derived from the
/// Theorem-3 law under `config` must equal `degrees.degree[i]`; min/max
/// clamps respected; parent >= child monotonicity under DegreeLaw::kCharge.
InvariantReport check_degrees(const Tree& tree, const DegreeAssignment& degrees,
                              const EvalConfig& config);

/// Evaluation-output sanity: sizes match `expected_size`, potentials (and
/// gradients / error bounds when present) finite, error bounds within the
/// enforced budget, degree-used stats inside the assignment's range when a
/// table is given.
InvariantReport check_eval_result(const EvalResult& result, const EvalConfig& config,
                                  std::size_t expected_size,
                                  const DegreeAssignment* degrees = nullptr);

/// Compiled-plan soundness against the tree, degree table, and config the
/// plan was compiled under. Checks MAC acceptance of every M2P entry,
/// leaf-ness of every P2P entry, exact once-per-target source coverage
/// (skipped targets excepted — they must own zero entries), budget
/// feasibility of the recorded bound accumulation, refresh-set and
/// statistics consistency, and delegates the degree law to check_degrees.
InvariantReport check_plan(const engine::EvalPlan& plan, const Tree& tree,
                           const DegreeAssignment& degrees, const EvalConfig& config);

/// Throw InvariantError unless `report.ok()`. `context` prefixes the
/// message (e.g. "Tree::build", "BarnesHutEvaluator::evaluate").
void require(const InvariantReport& report, const char* context);

/// Convenience used by the TREECODE_CHECK_INVARIANTS wiring: full tree +
/// degree-table walk in one call.
void assert_tree_invariants(const Tree& tree, const char* context);
void assert_eval_invariants(const Tree& tree, const DegreeAssignment& degrees,
                            const EvalConfig& config, const EvalResult& result,
                            std::size_t expected_size, const char* context);
void assert_plan_invariants(const engine::EvalPlan& plan, const Tree& tree,
                            const DegreeAssignment& degrees, const EvalConfig& config,
                            const char* context);

}  // namespace treecode::analysis

/// Wiring macros: active only under -DTREECODE_CHECK_INVARIANTS so release
/// hot paths carry zero overhead. Call sites live in octree.cpp and the
/// four evaluators.
#if defined(TREECODE_CHECK_INVARIANTS)
#define TREECODE_ASSERT_TREE_INVARIANTS(tree, context) \
  ::treecode::analysis::assert_tree_invariants((tree), (context))
#define TREECODE_ASSERT_EVAL_INVARIANTS(tree, degrees, config, result, expected, context) \
  ::treecode::analysis::assert_eval_invariants((tree), (degrees), (config), (result),     \
                                               (expected), (context))
#define TREECODE_ASSERT_PLAN_INVARIANTS(plan, tree, degrees, config, context) \
  ::treecode::analysis::assert_plan_invariants((plan), (tree), (degrees), (config), (context))
#else
#define TREECODE_ASSERT_TREE_INVARIANTS(tree, context) ((void)0)
#define TREECODE_ASSERT_EVAL_INVARIANTS(tree, degrees, config, result, expected, context) \
  ((void)0)
#define TREECODE_ASSERT_PLAN_INVARIANTS(plan, tree, degrees, config, context) ((void)0)
#endif
