#include "core/barnes_hut.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "analysis/invariants.hpp"
#include "core/interaction_walk.hpp"
#include "multipole/operators.hpp"
#include "obs/metric_names.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"
#include "obs/spans.hpp"
#include "util/timer.hpp"
#include "util/validate.hpp"

namespace treecode {

BarnesHutEvaluator::BarnesHutEvaluator(const Tree& tree, const EvalConfig& config,
                                       ThreadPool* pool, std::span<const double> sorted_charges)
    : tree_(tree), config_(config), degrees_(assign_degrees(tree, config)) {
  if (!sorted_charges.empty() && sorted_charges.size() != tree.num_particles()) {
    throw std::invalid_argument("BarnesHutEvaluator: charge override size mismatch");
  }
  // Override charges bypass the tree's input validation (the BEM operator
  // swaps densities every GMRES iteration); re-check them here so one NaN
  // density fails loudly instead of poisoning every multipole.
  if (!all_finite(sorted_charges)) {
    throw std::invalid_argument("BarnesHutEvaluator: charge override has non-finite values");
  }
  charges_ = sorted_charges.empty() ? std::span<const double>(tree_.charges())
                                    : sorted_charges;
  const ScopedTimer phase_timer(obs::span::kBhP2m, &build_seconds_);
  multipoles_ = build_multipoles(tree_, degrees_.degree, charges_, pool, obs::span::kBhP2mWorker);
}

std::uint64_t BarnesHutEvaluator::stored_coefficients() const noexcept {
  std::uint64_t total = 0;
  for (const auto& m : multipoles_) total += m.size();
  return total;
}

EvalResult BarnesHutEvaluator::evaluate(ThreadPool& pool) const {
  return run(pool, tree_.positions(), /*self=*/true);
}

EvalResult BarnesHutEvaluator::evaluate_at(ThreadPool& pool,
                                           std::span<const Vec3> points) const {
  // External targets get the same policy treatment as source particles:
  // kThrow fails fast on non-finite coordinates; kSanitize/kWarn keep the
  // offending targets' output slots zeroed (run() skips them) so result
  // indexing still matches `points`.
  enforce_validation(validate_targets(points), tree_.config().validation,
                     "BarnesHutEvaluator::evaluate_at");
  return run(pool, points, /*self=*/false);
}

EvalResult BarnesHutEvaluator::run(ThreadPool& pool, std::span<const Vec3> points,
                                   bool self) const {
  EvalResult result;
  const std::size_t n = points.size();
  // In self mode results are scattered into the caller's particle order,
  // which is indexed by the *source* system (validation may have dropped
  // particles, leaving zero-filled slots).
  const std::size_t out_n = self ? tree_.source_size() : n;
  const bool enforce = config_.enforce_budget;
  const double budget = config_.error_budget;
  const bool want_grad = config_.compute_gradient;
  const bool want_bounds = config_.track_error_bounds || enforce;
  // Audit target indices are sorted-order point indices in both self and
  // external mode, so a self evaluation and an evaluate_at over the sorted
  // positions audit identical interactions.
  const bool auditing = config_.audit_samples > 0;
  const bool want_thm1 = want_bounds || auditing;
  result.potential.assign(out_n, 0.0);
  if (want_grad) result.gradient.assign(out_n, Vec3{});
  if (want_bounds) result.error_bound.assign(out_n, 0.0);
  result.stats.reference_charge = degrees_.reference_charge;
  result.stats.build_seconds = build_seconds_;
  if (n == 0 || tree_.num_particles() == 0) return result;

  const auto& pos = tree_.positions();
  const auto& q = charges_;
  const double softening2 = config_.softening * config_.softening;

  // Results are computed into sorted-order slots, then scattered to the
  // caller's order at the end (self mode only; external points are already
  // in caller order).
  TargetRows rows(n, 1, want_grad, want_bounds);
  std::vector<obs::audit::Reservoir> audits(auditing ? pool.width() : 0);
  for (auto& r : audits) r.set_capacity(config_.audit_samples);
  std::vector<DeferredM2p> deferred(pool.width());
  InteractionWalk walk(tree_,
                       WalkRules{.alpha = config_.alpha,
                                 .degree = degrees_.degree,
                                 .bounds = want_thm1,
                                 .enforce = enforce,
                                 .budget = budget},
                       pool.width());

  {
    const ScopedTimer phase_timer(obs::span::kBhTraverse, &result.stats.eval_seconds);
    result.stats.work = walk.sweep(
        pool, n, config_.block_size, obs::span::kBhTraverseWorker,
        [&](std::size_t i, unsigned t) {
          const Vec3 x = points[i];
          // Sanitized non-finite targets keep a zero output slot; a NaN
          // coordinate fails every MAC test and would otherwise degrade to
          // an all-P2P sweep that still produces NaN.
          if (!std::isfinite(x.x) || !std::isfinite(x.y) || !std::isfinite(x.z)) return;
          DeferredM2p& terms = deferred[t];
          terms.start();
          Vec3 my_grad{};
          const double my_bound = walk.target(
              x, t,
              [&](int ni, const TreeNode& node, double r, double thm1) {
                const MultipoleExpansion& m = multipoles_[static_cast<std::size_t>(ni)];
                std::size_t slot;
                if (want_grad) {
                  const PotentialGrad pg = m2p_grad(m, node.center, x);
                  slot = terms.add(pg.potential);
                  my_grad += pg.gradient;
                } else {
                  slot = terms.defer(m, node.center);
                }
                if (auditing) terms.note_audit(slot, ni, m.degree(), r, thm1);
              },
              [&](int, const TreeNode& node) {
                const std::span<const Vec3> ppos(pos.data() + node.begin, node.count());
                const std::span<const double> pq(q.data() + node.begin, node.count());
                if (want_grad) {
                  const PotentialGrad pg = p2p_grad(x, ppos, pq, softening2);
                  terms.add(pg.potential);
                  my_grad += pg.gradient;
                } else {
                  terms.add(p2p(x, ppos, pq, softening2));
                }
              });
          const double my_phi = terms.flush(x);
          // The per-target acceptance ordinal, combined with the target
          // index, keys the audit sampling; both are schedule-independent
          // (the DFS visit order per target is fixed), so the sampled set is
          // bitwise identical across thread counts and block sizes.
          if (auditing) terms.offer_audits(audits[t], config_.audit_seed, i, tree_.nodes());
          // Inputs are validated at tree build, but override charges,
          // softening underflow, or an evaluation point sitting exactly on
          // an expansion center can still poison a potential; fail loudly
          // (the sweep cancels the remaining blocks) instead of returning
          // garbage.
          if (!std::isfinite(my_phi)) {
            obs::recorder::record(obs::recorder::Category::kNonFinite,
                                  "bh.nonfinite_potential", static_cast<double>(i));
            obs::recorder::trigger("bh: non-finite potential");
            throw std::runtime_error(
                "BarnesHutEvaluator: non-finite potential at evaluation point " +
                std::to_string(i));
          }
          rows.phi[i] = my_phi;
          if (want_grad) rows.grad[i] = my_grad;
          if (want_bounds) rows.bound[i] = my_bound;
        });
  }

  // Merge the per-thread tallies into the result stats and flush the
  // batched tallies into the metrics registry.
  const WalkTally tally = walk.total();
  tally.write(result.stats);
  if (auditing) {
    finish_audit(audits, config_.audit_samples, points, tree_, q, result.stats);
  }
  if (result.stats.budget_refinements > 0) {
    obs::recorder::record(obs::recorder::Category::kBudget, "bh.budget_refinements",
                          static_cast<double>(result.stats.budget_refinements));
  }

  obs::Registry& reg = obs::registry();
  reg.counter(obs::metric::kBhMultipoleTerms).add(result.stats.multipole_terms);
  reg.counter(obs::metric::kBhM2pCount).add(result.stats.m2p_count);
  reg.counter(obs::metric::kBhP2pPairs).add(result.stats.p2p_pairs);
  reg.counter(obs::metric::kBhBudgetRefinements).add(result.stats.budget_refinements);
  reg.counter(obs::metric::kBhBudgetRefinementsLeaf).add(result.stats.budget_refinements_leaf);
  reg.gauge(obs::metric::kBhMaxInteractionBound).record_max(result.stats.max_interaction_bound);
  obs::flush_counts(obs::metric::kBhM2pPerLevel, tally.m2p_by_level);
  obs::flush_counts(obs::metric::kBhP2pPerLevel, tally.p2p_by_level);
  obs::flush_counts(obs::metric::kBhDegreeUsed, tally.degree_used);

  // A budget that demotes most MAC-accepted interactions is unachievably
  // tight: the traversal is quietly degenerating toward direct summation.
  const std::uint64_t mac_accepted =
      result.stats.m2p_count + result.stats.budget_refinements;
  if (enforce && mac_accepted > 0 &&
      result.stats.budget_refinements * 2 > mac_accepted) {
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "bh: error budget %.3g demoted %.0f%% of MAC-accepted interactions; "
                  "the budget is likely unachievably tight",
                  budget,
                  100.0 * static_cast<double>(result.stats.budget_refinements) /
                      static_cast<double>(mac_accepted));
    obs::warn(msg);
  }

  rows.scatter(tree_, self, {&result, 1});
  TREECODE_ASSERT_EVAL_INVARIANTS(tree_, degrees_, config_, result, out_n,
                                  "BarnesHutEvaluator::run");
  return result;
}

EvalResult evaluate_barnes_hut(const Tree& tree, const EvalConfig& config) {
  ThreadPool pool(config.threads);
  BarnesHutEvaluator eval(tree, config, &pool);
  return eval.evaluate(pool);
}

}  // namespace treecode
