#include "core/dipole_barnes_hut.hpp"

#include <cmath>
#include <stdexcept>

#include "analysis/invariants.hpp"
#include "core/interaction_walk.hpp"
#include "multipole/operators.hpp"
#include "obs/metric_names.hpp"
#include "obs/spans.hpp"
#include "util/timer.hpp"
#include "util/validate.hpp"

namespace treecode {

DipoleBarnesHutEvaluator::DipoleBarnesHutEvaluator(const Tree& tree, const EvalConfig& config,
                                                   std::span<const Vec3> sorted_moments,
                                                   ThreadPool* pool)
    : tree_(tree),
      config_(config),
      degrees_(assign_degrees(tree, config)),
      moments_(sorted_moments) {
  if (moments_.size() != tree.num_particles()) {
    throw std::invalid_argument("DipoleBarnesHutEvaluator: moment count mismatch");
  }
  // Moments bypass the tree's input validation; one NaN moment would
  // poison every expansion, so re-check the span here.
  if (!all_finite(moments_)) {
    throw std::invalid_argument("DipoleBarnesHutEvaluator: non-finite dipole moment");
  }
  const ScopedTimer build_phase(obs::span::kDipoleBhP2m);
  const auto& nodes = tree_.nodes();
  multipoles_.resize(nodes.size());
  const auto& pos = tree_.positions();
  const NodeCost cost = [&](std::size_t i) { return p2m_cost(nodes[i], degrees_.degree[i]); };
  for_each_node(pool, nodes.size(), cost, obs::span::kDipoleBhP2mWorker, [&](std::size_t i) {
    const TreeNode& node = nodes[i];
    if (node.count() == 0) return;
    multipoles_[i].reset(degrees_.degree[i]);
    p2m_dipole(node.center,
               std::span<const Vec3>(pos.data() + node.begin, node.count()),
               moments_.subspan(node.begin, node.count()), multipoles_[i]);
  });
}

EvalResult DipoleBarnesHutEvaluator::evaluate_at(ThreadPool& pool,
                                                 std::span<const Vec3> points) const {
  // Same target policy as BarnesHutEvaluator::evaluate_at: throw under
  // kThrow, otherwise skip non-finite targets leaving their slots zero.
  enforce_validation(validate_targets(points), tree_.config().validation,
                     "DipoleBarnesHutEvaluator::evaluate_at");
  EvalResult result;
  const std::size_t n = points.size();
  result.potential.assign(n, 0.0);
  if (n == 0 || tree_.num_particles() == 0) return result;

  const auto& pos = tree_.positions();
  // The shared walk, bounds off (Theorem 1 bounds charges, not dipoles).
  InteractionWalk walk(tree_, WalkRules{.alpha = config_.alpha, .degree = degrees_.degree},
                       pool.width());
  {
    const ScopedTimer eval_phase(obs::span::kDipoleBhTraverse, &result.stats.eval_seconds);
    result.stats.work = walk.sweep(
        pool, n, config_.block_size, obs::span::kDipoleBhTraverseWorker,
        [&](std::size_t i, unsigned t) {
          const Vec3 x = points[i];
          if (!std::isfinite(x.x) || !std::isfinite(x.y) || !std::isfinite(x.z)) return;
          double my_phi = 0.0;
          walk.target(
              x, t,
              [&](int ni, const TreeNode& node, double, double) {
                my_phi += m2p(multipoles_[static_cast<std::size_t>(ni)], node.center, x);
              },
              [&](int, const TreeNode& node) {
                my_phi += p2p_dipole(x,
                                     std::span<const Vec3>(pos.data() + node.begin, node.count()),
                                     moments_.subspan(node.begin, node.count()));
              });
          result.potential[i] = my_phi;
        });
  }
  // Potentials only: the dipole evaluator reports terms, pairs and the
  // degree range, not the charge-bound statistics.
  const WalkTally tally = walk.total();
  result.stats.multipole_terms = tally.terms;
  result.stats.p2p_pairs = tally.p2p;
  result.stats.min_degree_used = tally.max_deg >= 0 ? tally.min_deg : 0;
  result.stats.max_degree_used = tally.max_deg >= 0 ? tally.max_deg : 0;
  obs::Registry& reg = obs::registry();
  reg.counter(obs::metric::kDipoleBhMultipoleTerms).add(result.stats.multipole_terms);
  reg.counter(obs::metric::kDipoleBhP2pPairs).add(result.stats.p2p_pairs);
#if defined(TREECODE_CHECK_INVARIANTS)
  // The dipole evaluator produces potentials only; check against a config
  // copy with the unproduced outputs switched off.
  EvalConfig checked = config_;
  checked.compute_gradient = false;
  checked.track_error_bounds = false;
  checked.enforce_budget = false;
  TREECODE_ASSERT_EVAL_INVARIANTS(tree_, degrees_, checked, result, n,
                                  "DipoleBarnesHutEvaluator::evaluate_at");
#endif
  return result;
}

}  // namespace treecode
