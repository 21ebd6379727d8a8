#pragma once

/// \file eval_session.hpp
/// The evaluation engine: compile an interaction plan once, replay it for
/// every subsequent charge vector.
///
/// An EvalSession owns a built Tree plus everything derived from it that is
/// charge-independent: the Theorem-3 degree table, the thread pool, and an
/// LRU cache of compiled EvalPlans. The intended lifecycle, mirroring the
/// paper's GMRES-over-fixed-geometry application:
///
///     engine::EvalSession session(std::move(tree), config);
///     auto plan = session.compile(targets);     // one alpha-MAC traversal
///     for (each solver iteration) {
///       session.update_charges(q);              // geometry untouched
///       EvalResult r = session.evaluate(*plan); // list replay, no tree walk
///     }
///
/// Charge refresh is lazy and partial: update_charges only bumps an epoch;
/// the next evaluate rebuilds (P2M, from the node's own particles) exactly
/// the stale nodes the plan's M2P list references, reusing the allocated
/// coefficient storage. Nodes never referenced by any plan — typically the
/// top levels, which never pass the MAC for surface targets yet carry the
/// highest degrees and largest particle counts — are never built at all.
///
/// Plans stay valid as long as the session's tree and config live, i.e.
/// forever: geometry, degrees, and per-node |q| aggregates are frozen at
/// construction, and update_charges touches none of them. A different
/// particle set or config means a new session.
///
/// ## Failure taxonomy and the try_ API
///
/// Every fallible entry point comes in two forms: `try_foo()` returns
/// `Expected<...>` carrying a typed ErrorCode (util/expected.hpp) and never
/// throws; the legacy `foo()` wrapper unwraps via EngineError for callers
/// that prefer exceptions. Engine code itself contains no `throw` —
/// enforced by the treecode-analyze rule `engine-returns-expected`.
/// Every constructed Error increments `engine.errors` and triggers the
/// tracer (obs/reqtrace.hpp) with an event named after the error code.
///
/// ## Resource governance and the degradation ladder
///
/// When EvalConfig::memory_budget_bytes is set, every durable allocation —
/// compiled plan storage, multipole coefficients, the batch workspace — is
/// first reserved against the session's ResourceGovernor. A denial does
/// not fail the evaluation: the session steps down a fixed ladder,
/// reporting the serving rung in EvalStats::served_rung:
///
///   rung 0  kReplay     compiled plan, M2P/P2M on the fly
///   rung 1  kTraversal  uncompiled alpha-MAC traversal (transient
///                       multipoles, nothing retained)
///   rung 2  kDirect     per-target exact P2P (no multipoles at all)
///
/// Rungs 0-1 produce bitwise-identical potentials and Theorem-1 bounds
/// (replay is entry-for-entry the fresh traversal); rung 2 is exact
/// summation with zero truncation error. Rung choice depends only on the
/// governor's byte ledger and (serially ordered) injected faults — never
/// wall time or thread scheduling — so it is bitwise-deterministic across
/// thread counts. Governance covers the durable evaluation state; the tree,
/// charges, and transient compile scratch are documented headroom.
///
/// ## Deadlines
///
/// EvalConfig::deadline_seconds arms a wall-clock deadline per evaluation,
/// enforced cooperatively: replay and direct-summation workers poll
/// between blocks and cancel the sweep via a CancellationToken on expiry.
/// The outcome is kDeadline — a hard error by default, or a partial result
/// (EvalStats::targets_served valid targets) under deadline_partial. The
/// deadline never influences rung choice, only completion.
///
/// Determinism: plans are recorded by the same alpha-MAC walk that
/// BarnesHutEvaluator evaluates through (core/interaction_walk.hpp), and
/// every replay — single-RHS or batch column — runs one replay kernel,
/// templated on its column-block width, over the recorded entries.
/// Potentials and tracked error bounds are therefore bitwise-equal to
/// BarnesHutEvaluator output at every thread count, block size and width.
///
/// Thread safety: the session parallelizes internally over its own pool
/// but external calls must be serialized — compile, update_charges, and
/// evaluate all mutate session state (cache, epochs, multipoles).

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/degree_policy.hpp"
#include "engine/eval_plan.hpp"
#include "engine/plan_cache.hpp"
#include "multipole/expansion.hpp"
#include "parallel/thread_pool.hpp"
#include "tree/octree.hpp"
#include "util/expected.hpp"
#include "util/resource_governor.hpp"

namespace treecode::engine {

/// Compile-once / replay-many treecode evaluator over one tree + config.
class EvalSession {
 public:
  /// Session tuning knobs (none affect results — replay output is
  /// bitwise-identical to a fresh traversal regardless).
  struct Options {
    /// Compiled plans kept per session, evicted LRU.
    std::size_t plan_cache_capacity = 8;
    /// Byte bound on the *total* resident compiled plans (the cache evicts
    /// LRU past it, and declines to retain a single plan larger than it).
    /// 0 = count-bounded only.
    std::size_t plan_cache_byte_capacity = 0;
  };

  /// Takes ownership of the tree; validates the config and assigns
  /// Theorem-3 degrees. No multipole is built yet — the first evaluate
  /// builds exactly what its plan references. The governor budget comes
  /// from EvalConfig::memory_budget_bytes.
  EvalSession(Tree tree, const EvalConfig& config, const Options& options);
  EvalSession(Tree tree, const EvalConfig& config, std::size_t plan_cache_capacity = 8)
      : EvalSession(std::move(tree), config,
                    Options{.plan_cache_capacity = plan_cache_capacity}) {}

  /// Compile (or fetch from the LRU cache) the interaction plan for
  /// arbitrary evaluation points. Target coordinates are validated under
  /// the tree's ValidationPolicy: kThrow yields kNonFinite on non-finite
  /// targets; kSanitize/kWarn keep the offending targets' output slots
  /// (zeroed) and record them in the plan's skipped_targets. A governor
  /// denial of the plan's bytes yields kMemoryBudget (the ladder in
  /// try_evaluate_at then serves without a plan).
  [[nodiscard]] Expected<std::shared_ptr<const EvalPlan>> try_compile(
      std::span<const Vec3> targets);

  /// Plan for evaluating at the tree's own particles (self-interaction
  /// excluded by the P2P kernels' r == 0 skip, as in BarnesHutEvaluator).
  [[nodiscard]] Expected<std::shared_ptr<const EvalPlan>> try_compile_self();

  /// Replace the source charges, given in the *caller's original* particle
  /// order (size tree().source_size()). O(n) gather + epoch bump; the
  /// multipole refresh happens lazily in the next evaluate. Errors:
  /// kInvalidArgument on size mismatch, kNonFinite on non-finite values
  /// (the session's charges are left untouched).
  [[nodiscard]] Expected<void> try_update_charges(std::span<const double> charges);

  /// Same, but already in the tree's sorted order (size
  /// tree().num_particles()) — the BEM matvec hot path, which gathers
  /// through original_index() itself.
  [[nodiscard]] Expected<void> try_update_charges_sorted(
      std::span<const double> charges);

  /// Replay a compiled plan against the current charges: refresh stale
  /// plan-referenced multipoles, then accumulate the frozen interaction
  /// lists. No tree walk, no MAC tests, no degree decisions. The plan must
  /// come from this session (kInvalidArgument otherwise: plans carry their
  /// compiling session's id). A governor denial during refresh degrades to
  /// rungs 1-2 over the plan's own targets.
  [[nodiscard]] Expected<EvalResult> try_evaluate(const EvalPlan& plan);

  /// Multi-RHS batched replay: evaluate `plan` against k charge columns
  /// (each in the *caller's original* particle order, size
  /// tree().source_size()) with one walk of the frozen entry stream per
  /// block of up to 8 columns — the replay kernel at width K = the block's
  /// column count. Column c is bitwise-identical to
  /// try_update_charges(charge_columns[c]) + try_evaluate(plan) at every
  /// thread count and width (DESIGN.md §5c), and the session's own charges,
  /// epochs and multipoles stay untouched. Gradient or audit configs, and
  /// a governor denial of the batch workspace (engine.batch_denied), fall
  /// back to a sequential per-column replay (engine.batch_fallbacks) that
  /// leaves the session's charges at the last column. Errors:
  /// kInvalidArgument (no columns, size mismatch, foreign plan),
  /// kNonFinite (bad column input, or a non-finite computed potential —
  /// the message names the target and column), kDeadline.
  [[nodiscard]] Expected<std::vector<EvalResult>> try_evaluate_batch(
      const EvalPlan& plan,
      std::span<const std::span<const double>> charge_columns);

  /// Compile + evaluate with the full degradation ladder: warm calls with
  /// a cached plan skip straight to replay; a compile denied by the
  /// governor falls through to the uncompiled traversal or direct rungs.
  [[nodiscard]] Expected<EvalResult> try_evaluate_at(std::span<const Vec3> targets);

  /// Ladder evaluation at the tree's own particles, results in the
  /// caller's original particle order (validation-dropped slots stay zero).
  [[nodiscard]] Expected<EvalResult> try_evaluate();

  // Legacy exception wrappers: unwrap the Expected, converting an Error to
  // EngineError (a std::runtime_error carrying the ErrorCode).
  [[nodiscard]] std::shared_ptr<const EvalPlan> compile(std::span<const Vec3> targets) {
    return try_compile(targets).value_or_throw();
  }
  [[nodiscard]] std::shared_ptr<const EvalPlan> compile_self() {
    return try_compile_self().value_or_throw();
  }
  void update_charges(std::span<const double> charges) {
    try_update_charges(charges).value_or_throw();
  }
  void update_charges_sorted(std::span<const double> charges) {
    try_update_charges_sorted(charges).value_or_throw();
  }
  [[nodiscard]] EvalResult evaluate(const EvalPlan& plan) {
    return try_evaluate(plan).value_or_throw();
  }
  [[nodiscard]] EvalResult evaluate_at(std::span<const Vec3> targets) {
    return try_evaluate_at(targets).value_or_throw();
  }
  [[nodiscard]] EvalResult evaluate() { return try_evaluate().value_or_throw(); }

  [[nodiscard]] const Tree& tree() const noexcept { return tree_; }
  [[nodiscard]] const EvalConfig& config() const noexcept { return config_; }
  [[nodiscard]] const DegreeAssignment& degrees() const noexcept { return degrees_; }
  [[nodiscard]] ThreadPool& pool() noexcept { return pool_; }
  [[nodiscard]] const ThreadPool& pool() const noexcept { return pool_; }
  [[nodiscard]] const PlanCache& cache() const noexcept { return cache_; }
  [[nodiscard]] PlanCache& cache() noexcept { return cache_; }
  /// The session's byte ledger + deadline (budget from the config; tests
  /// may tighten it mid-session via set_budget).
  [[nodiscard]] ResourceGovernor& governor() noexcept { return governor_; }
  [[nodiscard]] const ResourceGovernor& governor() const noexcept { return governor_; }
  /// Current charges in tree-sorted order (what the next evaluate uses).
  [[nodiscard]] std::span<const double> sorted_charges() const noexcept {
    return sorted_charges_;
  }

 private:
  /// Where a replay reads its charge columns and multipoles.
  struct Columns {
    const double* charges;                 ///< column c at charges + c * stride
    std::size_t stride;
    const MultipoleExpansion* multipoles;  ///< (slot s, column c) at [s * k + c]
    const std::int32_t* slot;  ///< node -> batch slot; null = node id (single RHS)
  };

  // Entry-point bodies: each public try_* above is a thin wrapper that
  // times the call and finishes its request with one obs::reqtrace
  // RequestRecord at exit.
  Expected<std::shared_ptr<const EvalPlan>> try_compile_impl(
      std::span<const Vec3> targets, bool self);
  /// `sorted`: the charges are in tree order (size num_particles) rather
  /// than the caller's original order (size source_size).
  Expected<void> try_update_charges_impl(std::span<const double> charges, bool sorted);
  Expected<EvalResult> try_evaluate_impl(const EvalPlan& plan);
  Expected<std::vector<EvalResult>> try_evaluate_batch_impl(
      const EvalPlan& plan, std::span<const std::span<const double>> charge_columns);
  /// for_each_node's cost of index j: the P2M work of node node_ids[j].
  std::function<std::uint64_t(std::size_t)> p2m_cost_of(
      std::span<const std::int32_t> node_ids) const;
  /// Build node `nu`'s (reset or cleared) expansions: out[c] from the
  /// tree-sorted charge column at sorted_charges + c * stride, by p2m() for
  /// one column and p2m_batch() for several — bitwise the single-RHS p2m()
  /// either way.
  void build_node_multipoles(std::size_t nu, const double* sorted_charges, std::size_t stride,
                             std::span<MultipoleExpansion> out) const;
  /// The replay prologue: kInvalidArgument unless this session compiled `plan`.
  Expected<void> check_owned(const EvalPlan& plan);
  /// The one replay body behind rung 0 and the batch: the K-templated
  /// kernel over results.size() columns, then metrics and the scatter.
  Expected<void> replay_columns(const EvalPlan& plan, const Columns& columns,
                                std::span<EvalResult> results);
  /// Shared ladder body for try_evaluate_at / try_evaluate; `key_out`
  /// reports the compiled plan's cache key (0 if compile was denied).
  Expected<EvalResult> try_evaluate_at_impl(std::span<const Vec3> targets,
                                            bool self, std::uint64_t& key_out);
  /// Rung 0: replay `plan` (refresh + frozen-list accumulation).
  Expected<EvalResult> replay(const EvalPlan& plan);
  /// Rebuild the plan-referenced multipoles whose epoch is stale,
  /// reserving first-build coefficient bytes against the governor.
  Expected<void> try_ensure_refreshed(const EvalPlan& plan);
  /// Rungs 1-2 over raw targets, entered when a plan cannot be afforded.
  Expected<EvalResult> serve_degraded(std::span<const Vec3> targets, bool self);
  /// Rung 1: transient BarnesHutEvaluator traversal.
  Expected<EvalResult> serve_traversal(std::span<const Vec3> targets, bool self);
  /// Rung 2: exact per-target P2P summation.
  Expected<EvalResult> serve_direct(std::span<const Vec3> targets, bool self);

  Tree tree_;
  EvalConfig config_;
  DegreeAssignment degrees_;
  ThreadPool pool_;
  ResourceGovernor governor_;
  /// Active charges in tree-sorted order; starts as the tree's own.
  std::vector<double> sorted_charges_;
  /// Lazily built per-node expansions; entry i is valid iff
  /// node_epoch_[i] == charge_epoch_.
  std::vector<MultipoleExpansion> multipoles_;
  std::vector<std::uint64_t> node_epoch_;  ///< 0 = never built
  std::uint64_t charge_epoch_ = 1;
  std::vector<std::int32_t> stale_;  ///< refresh scratch, reused across evaluates
  /// Budget reservation backing the multipole coefficients above. Grown by
  /// absorb() on each governed first build; the bytes return to the ledger
  /// when the session dies. Declared after governor_: destroyed first,
  /// releasing into a live ledger.
  ResourceGovernor::Reservation multipole_reservation_;
  PlanCache cache_;
  std::uint64_t id_;  ///< process-unique; stamped on every plan compiled here
};

}  // namespace treecode::engine
