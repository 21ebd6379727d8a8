#pragma once

/// \file barnes_hut.hpp
/// The Barnes-Hut evaluator, covering both the paper's "original method"
/// (DegreeMode::kFixed) and its "new method" (DegreeMode::kAdaptive).
///
/// Pipeline:
///  1. degree assignment (degree_policy.hpp) — per node, a priori;
///  2. upward pass: each node's multipole expansion is built *directly from
///     its own particles* (P2M) to exactly its assigned degree. Building
///     from particles rather than child M2M keeps every node's expansion
///     exact to its truncation degree even when children carry lower
///     degrees (translation of a lower-degree child would silently drop the
///     orders the parent needs);
///  3. per-particle alpha-MAC walk (core/interaction_walk.hpp — the one
///     walk the engine's plan compiler and the dipole evaluator share),
///     evaluating M2P and P2P as it goes; parallelized over blocks of
///     `block_size` consecutive Hilbert-ordered particles (the paper's
///     w-aggregation) with dynamic scheduling.
///
/// The evaluator can be reused: construct once (builds the multipoles) and
/// call evaluate() with different thread pools — that is how the parallel
/// benchmark measures serial and threaded runs of the same operator.

#include <memory>

#include "core/config.hpp"
#include "core/degree_policy.hpp"
#include "multipole/expansion.hpp"
#include "parallel/thread_pool.hpp"
#include "tree/octree.hpp"

namespace treecode {

/// Reusable Barnes-Hut operator over one tree + config.
class BarnesHutEvaluator {
 public:
  /// Assigns degrees and builds all node multipoles (parallelized over
  /// nodes using `pool` if provided, else serial).
  ///
  /// `sorted_charges` optionally overrides the tree's charge values (it
  /// must be in the tree's *sorted* particle order and outlive the
  /// evaluator). This is how the BEM operator reuses one tree across GMRES
  /// iterations: the quadrature-point geometry — and therefore centers,
  /// radii, and degree assignment — is fixed at tree build, while the
  /// density values change every matrix-vector product.
  BarnesHutEvaluator(const Tree& tree, const EvalConfig& config, ThreadPool* pool = nullptr,
                     std::span<const double> sorted_charges = {});

  /// Evaluate potentials (and gradients if configured) at every particle,
  /// writing results in the original particle order (vectors sized
  /// tree.source_size(); slots of validation-dropped particles stay zero).
  /// The traversal runs on `pool`; per-thread work statistics land in the
  /// result's stats. With EvalConfig::enforce_budget the traversal demotes
  /// any MAC-accepted interaction that would push a target's accumulated
  /// Theorem-1 bound past error_budget, recursing deeper (or using exact
  /// P2P at leaves) so that on return
  ///   |Phi_exact(i) - Phi(i)| <= error_bound[i] <= error_budget.
  [[nodiscard]] EvalResult evaluate(ThreadPool& pool) const;

  /// Evaluate at arbitrary points instead of the source particles
  /// (used by the BEM operator: charges at Gauss points, potentials at
  /// collocation nodes). Results indexed like `points`.
  [[nodiscard]] EvalResult evaluate_at(ThreadPool& pool, std::span<const Vec3> points) const;

  [[nodiscard]] const Tree& tree() const noexcept { return tree_; }
  [[nodiscard]] const EvalConfig& config() const noexcept { return config_; }
  [[nodiscard]] const DegreeAssignment& degrees() const noexcept { return degrees_; }
  [[nodiscard]] double build_seconds() const noexcept { return build_seconds_; }

  /// Total multipole coefficients stored, a memory-cost measure for the
  /// adaptive-vs-fixed comparison.
  [[nodiscard]] std::uint64_t stored_coefficients() const noexcept;

 private:
  /// Shared traversal core: evaluates at `points[i]`; `self` indicates the
  /// points are the tree's own (sorted) particles, enabling exact
  /// self-skip semantics in P2P.
  EvalResult run(ThreadPool& pool, std::span<const Vec3> points, bool self) const;

  const Tree& tree_;
  EvalConfig config_;
  DegreeAssignment degrees_;
  std::span<const double> charges_;  ///< sorted order; tree's or override
  std::vector<MultipoleExpansion> multipoles_;
  double build_seconds_ = 0.0;
};

/// One-shot convenience: build + evaluate with a private thread pool.
EvalResult evaluate_barnes_hut(const Tree& tree, const EvalConfig& config);

}  // namespace treecode
