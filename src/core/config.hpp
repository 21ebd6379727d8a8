#pragma once

/// \file config.hpp
/// Evaluator configuration and result types shared by all treecode
/// evaluation methods (Barnes-Hut fixed degree, Barnes-Hut adaptive degree,
/// FMM, direct summation).

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "geom/vec3.hpp"
#include "parallel/parallel_for.hpp"
#include "util/expected.hpp"

namespace treecode {

/// Fixed ("original method") vs per-cluster adaptive ("new method")
/// multipole degree selection.
enum class DegreeMode {
  kFixed,     ///< every interaction uses `degree` terms (classic Barnes-Hut)
  kAdaptive,  ///< per-cluster degree from Theorem 3
};

/// Which reference value anchors the adaptive degree law. For
/// DegreeLaw::kCharge the reference is a cluster charge A_ref; for
/// kChargeOverSize it is a charge density A_ref / d_ref.
enum class DegreeReference {
  kMinLeaf,   ///< smallest nonzero leaf value (the paper's choice)
  kMeanLeaf,  ///< mean leaf value (practical threshold variant)
  kExplicit,  ///< caller-provided `reference_charge`
};

/// Which cluster metric the Theorem-3 equalization uses.
enum class DegreeLaw {
  /// Equalize A alpha^(p+1): the literal statement of Theorem 3. Degrees
  /// grow ~3 log2(1/alpha)^-1 per level for uniform density (A ~ volume).
  kCharge,
  /// Equalize (A/d) alpha^(p+1): folds in Lemma 1's observation that
  /// interactions with size-d clusters happen at distance r = Theta(d), so
  /// the *actual Theorem-2 bound* A/r alpha^(p+1) is what gets equalized.
  /// Degrees grow ~2 log2(1/alpha)^-1 per level; this is the default and
  /// what keeps the extra cost within the paper's small constant.
  kChargeOverSize,
};

/// All knobs of a treecode evaluation.
struct EvalConfig {
  /// MAC opening parameter: a cluster is accepted when a / r <= alpha,
  /// where a is the cluster radius about its center of charge and r the
  /// distance from the evaluation point to that center. Must be in (0, 1).
  double alpha = 0.5;

  /// Fixed degree (kFixed) or base/minimum degree p (kAdaptive).
  int degree = 4;

  /// Clamp for the adaptive law (keeps unstructured domains from demanding
  /// "very large degree multipoles", the difficulty the paper notes).
  int max_degree = 30;

  DegreeMode mode = DegreeMode::kFixed;
  DegreeLaw law = DegreeLaw::kChargeOverSize;
  DegreeReference reference = DegreeReference::kMeanLeaf;
  /// Reference value when reference == kExplicit; ignored otherwise.
  /// Interpreted as a charge (kCharge) or a charge density (kChargeOverSize).
  double reference_charge = 0.0;

  /// Worker threads; 0 or 1 runs inline on the caller (true serial).
  unsigned threads = 0;

  /// The paper's aggregation factor w: particles per unit of thread work.
  std::size_t block_size = 64;

  /// Use the rotation-accelerated O(p^3) translations (rotation.hpp)
  /// instead of the dense O(p^4) ones where the evaluator translates
  /// expansions (currently the FMM's M2L/L2L phases). Numerically
  /// equivalent to rounding; pays off as the adaptive method pushes
  /// degrees up. The Barnes-Hut evaluator performs no translations, so
  /// this flag does not affect it.
  bool use_rotation_translations = false;

  /// Plummer softening length epsilon applied to *direct* (P2P)
  /// interactions: kernel q / sqrt(r^2 + eps^2). Multipole-approximated
  /// interactions stay unsoftened, which is the standard treecode practice
  /// and accurate when eps is far below the MAC-separated distances (i.e.
  /// eps much smaller than a leaf cell). Used by n-body integrations to
  /// bound close-encounter forces; 0 (default) is the exact kernel the
  /// error analysis assumes.
  double softening = 0.0;

  /// Also compute grad Phi per particle (forces = -q grad Phi).
  bool compute_gradient = false;

  /// Also accumulate, per evaluation point, the sum of Theorem-1 truncation
  /// bounds over its accepted interactions — a rigorous a-posteriori bound
  /// on |Phi_exact - Phi_treecode| at that point (direct interactions
  /// contribute no error). Fills EvalResult::error_bound.
  ///
  /// The bound of an interaction is computed from the cluster's sum of |q|
  /// as taken from the tree's charges at construction. A compiled session
  /// keeps those sums across EvalSession::update_charges (and batch
  /// columns): the bounds it then reports certify only charge vectors whose
  /// sum of |q| over every cluster is no larger than the tree's.
  bool track_error_bounds = false;

  /// Per-target absolute error budget for Barnes-Hut traversal, in the
  /// units of the potential. Only meaningful with enforce_budget.
  double error_budget = 0.0;

  /// Runtime error-budget enforcement: during traversal, a MAC-accepted
  /// interaction whose Theorem-1 bound would push the target's accumulated
  /// a-posteriori bound past `error_budget` is *not* approximated —
  /// the traversal recurses into the cluster's children instead, falling
  /// back to exact P2P at leaves. On exit every target i then satisfies
  ///   |Phi_exact(i) - Phi_treecode(i)| <= error_bound[i] <= error_budget.
  /// Implies error-bound tracking; EvalResult::error_bound is filled.
  bool enforce_budget = false;

  /// Audit sampling: when > 0, deterministically sample this many accepted
  /// M2P interactions per evaluation, recompute each sampled cluster's
  /// exact P2P partial sum, and record observed-error / Theorem-1-bound
  /// tightness ratios into the metrics registry (see obs/audit.hpp). The
  /// sample set is bitwise identical across thread counts and block sizes.
  /// Supported by the Barnes-Hut evaluator and EvalSession replay; the FMM
  /// ignores it (M2L error is not attributable to single particle-cluster
  /// interactions). 0 (default) compiles down to a predicted branch.
  std::size_t audit_samples = 0;

  /// Seed for the audit's counter-based sampling keys. Two runs with the
  /// same seed audit the same interactions; vary it to sample fresh ones.
  std::uint64_t audit_seed = 0;

  /// Hard session-wide byte budget for the engine's durable evaluation
  /// state (compiled plans, multipole coefficients, batch workspaces),
  /// enforced by the session's ResourceGovernor. A denied reservation never
  /// fails the evaluation outright: the engine steps down its degradation
  /// ladder (plan replay -> uncompiled traversal -> direct P2P) and
  /// reports the serving rung in EvalStats::served_rung.
  /// 0 (default) = unlimited; the ladder never engages on memory grounds.
  std::size_t memory_budget_bytes = 0;

  /// Wall-clock deadline per engine evaluation, in seconds, enforced
  /// cooperatively (workers poll between blocks). 0 (default) = none.
  /// Expiry behavior is governed by `deadline_partial`. The deadline never
  /// influences *which* ladder rung serves — rung choice stays
  /// bitwise-deterministic across thread counts; only completion does.
  double deadline_seconds = 0.0;

  /// What an expired deadline yields: false (default) fails the evaluation
  /// with ErrorCode::kDeadline; true returns the targets computed so far
  /// (unserved slots zero), with EvalStats::outcome == kDeadline and
  /// EvalStats::targets_served saying how many are valid.
  bool deadline_partial = false;

  /// Sanity-check the configuration; throws std::invalid_argument on the
  /// first violated invariant. Called by the evaluators on entry so a bad
  /// alpha or budget fails loudly instead of producing silent garbage.
  void validate() const {
    if (!(alpha > 0.0) || !(alpha < 1.0)) {
      throw std::invalid_argument("EvalConfig: alpha must be in (0, 1)");
    }
    if (degree < 0) throw std::invalid_argument("EvalConfig: degree must be >= 0");
    if (max_degree < degree) {
      throw std::invalid_argument("EvalConfig: max_degree must be >= degree");
    }
    if (!std::isfinite(softening) || softening < 0.0) {
      throw std::invalid_argument("EvalConfig: softening must be finite and >= 0");
    }
    if (!std::isfinite(error_budget) || error_budget < 0.0) {
      throw std::invalid_argument("EvalConfig: error_budget must be finite and >= 0");
    }
    if (enforce_budget && error_budget <= 0.0) {
      throw std::invalid_argument(
          "EvalConfig: enforce_budget requires a positive error_budget");
    }
    if (reference == DegreeReference::kExplicit && !std::isfinite(reference_charge)) {
      throw std::invalid_argument("EvalConfig: explicit reference_charge must be finite");
    }
    if (!std::isfinite(deadline_seconds) || deadline_seconds < 0.0) {
      throw std::invalid_argument("EvalConfig: deadline_seconds must be finite and >= 0");
    }
  }
};

/// The engine's degradation ladder (engine/eval_session.hpp). Rung choice
/// is driven only by the resource-governor ledger (and injected faults) —
/// never wall time — so it is bitwise-identical across thread counts.
/// Rungs 0-1 produce bitwise-identical potentials and Theorem-1 bounds;
/// rung 2 is exact summation (zero truncation error), so every rung
/// preserves the error guarantee of the rung above it.
enum class ServeRung : int {
  kReplay = 0,     ///< compiled plan replay
  kTraversal = 1,  ///< uncompiled alpha-MAC traversal (no plan kept)
  kDirect = 2,     ///< per-target direct P2P summation (no multipoles)
};

/// Instrumentation of one evaluation. `multipole_terms` is the paper's
/// serial-cost measure: for every particle-cluster interaction of degree p
/// it adds (p+1)^2 (the number of (n, m) terms evaluated).
struct EvalStats {
  std::uint64_t multipole_terms = 0;  ///< sum over M2P/M2L/L2P of (p+1)^2
  std::uint64_t m2p_count = 0;        ///< accepted particle-cluster interactions
  std::uint64_t p2p_pairs = 0;        ///< direct particle-particle interactions
  std::uint64_t m2l_count = 0;        ///< FMM cluster-cluster conversions
  /// MAC-accepted interactions the error budget demoted to refinement or
  /// P2P (0 unless EvalConfig::enforce_budget).
  std::uint64_t budget_refinements = 0;
  /// Subset of budget_refinements that hit a *leaf* and fell back to exact
  /// P2P (the remainder recursed into children for tighter bounds). A high
  /// leaf share means the budget is forcing the traversal all the way to
  /// direct summation.
  std::uint64_t budget_refinements_leaf = 0;
  double max_interaction_bound = 0.0; ///< max Theorem-2 bound among accepted
  double build_seconds = 0.0;         ///< upward pass (P2M) time
  double eval_seconds = 0.0;          ///< traversal + evaluation time
  /// Smallest/largest expansion degree *actually evaluated* (M2P for
  /// Barnes-Hut; M2L/L2P for the FMM) during this run — not the degree
  /// table's range, which over-reports when budget enforcement demotes
  /// interactions or a degree is assigned but never interacted with.
  /// Both 0 when no multipole interaction happened (e.g. everything P2P).
  int min_degree_used = 0;
  int max_degree_used = 0;
  double reference_charge = 0.0;      ///< the A_ref actually used
  /// Audit outcome (all 0 unless EvalConfig::audit_samples > 0): sampled
  /// interaction count, Theorem-1 violations among them, and the largest /
  /// mean observed-error-to-bound tightness ratio (finite ratios only).
  std::uint64_t audit_samples = 0;
  std::uint64_t audit_bound_violations = 0;
  double audit_max_tightness = 0.0;
  double audit_mean_tightness = 0.0;
  /// Degradation-ladder rung that served the evaluation. Always kReplay
  /// (0) for evaluators outside the engine's ladder (fresh Barnes-Hut,
  /// FMM, direct): the field is engine-specific reporting.
  ServeRung served_rung = ServeRung::kReplay;
  /// kOk, or kDeadline when EvalConfig::deadline_partial returned a
  /// partial result. Hard failures are reported as errors, not here.
  ErrorCode outcome = ErrorCode::kOk;
  /// Engine evaluations: targets with valid output — the target count
  /// except under a deadline_partial expiry. (Validation-skipped targets
  /// count as served: their zero slots are the policy's defined answer.)
  /// 0 from evaluators that do not fill it (fresh Barnes-Hut, FMM).
  std::uint64_t targets_served = 0;
  WorkStats work;                     ///< per-thread work for speedup models
};

/// Result of an evaluation, in the *caller's* particle order.
struct EvalResult {
  std::vector<double> potential;
  std::vector<Vec3> gradient;      ///< empty unless compute_gradient
  std::vector<double> error_bound; ///< empty unless track_error_bounds
  EvalStats stats;
};

}  // namespace treecode
