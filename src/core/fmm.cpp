#include "core/fmm.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "analysis/invariants.hpp"
#include "core/interaction_walk.hpp"
#include "multipole/error_bounds.hpp"
#include "multipole/operators.hpp"
#include "multipole/rotation.hpp"
#include "obs/instrument.hpp"
#include "obs/metric_names.hpp"
#include "parallel/parallel_for.hpp"
#include "util/timer.hpp"
#include "obs/spans.hpp"

namespace treecode {

namespace {

/// Interaction lists produced by the dual-tree traversal. Grouping by
/// *target* makes the expensive phases race-free under parallelism: each
/// target node's local expansion (and each target leaf's outputs) is
/// written by exactly one task.
struct InteractionLists {
  std::vector<std::vector<int>> m2l_sources;  ///< per target node
  std::vector<std::vector<int>> p2p_sources;  ///< per target leaf node
  std::vector<int> m2l_targets;               ///< nodes with nonempty m2l list
  std::vector<int> p2p_targets;               ///< leaves with nonempty p2p list
};

struct Traversal {
  const Tree* tree = nullptr;
  double alpha = 0.5;
  InteractionLists lists;

  [[nodiscard]] const TreeNode& node(int i) const {
    return tree->node(static_cast<std::size_t>(i));
  }

  void add_m2l(int target, int source) {
    auto& v = lists.m2l_sources[static_cast<std::size_t>(target)];
    if (v.empty()) lists.m2l_targets.push_back(target);
    v.push_back(source);
  }

  void add_p2p(int target, int source) {
    auto& v = lists.p2p_sources[static_cast<std::size_t>(target)];
    if (v.empty()) lists.p2p_targets.push_back(target);
    v.push_back(source);
  }

  /// Dual-tree traversal with the two-sided alpha criterion.
  void traverse(int a, int b) {
    const TreeNode& ta = node(a);
    const TreeNode& tb = node(b);
    if (ta.count() == 0 || tb.count() == 0) return;
    const double d = distance(ta.center, tb.center);
    if (d > 0.0 && ta.radius + tb.radius <= alpha * d) {
      add_m2l(a, b);
      return;
    }
    if (ta.is_leaf() && tb.is_leaf()) {
      add_p2p(a, b);
      return;
    }
    const bool split_a = !ta.is_leaf() && (tb.is_leaf() || ta.radius >= tb.radius);
    if (split_a) {
      for (int c = 0; c < ta.num_children; ++c) traverse(ta.first_child + c, b);
    } else {
      for (int c = 0; c < tb.num_children; ++c) traverse(a, tb.first_child + c);
    }
  }
};

}  // namespace

EvalResult evaluate_fmm(const Tree& tree, const EvalConfig& config) {
  EvalResult result;
  const std::size_t n = tree.num_particles();
  // Caller-order results are indexed by the source system (validation may
  // have dropped particles; their slots stay zero).
  result.potential.assign(tree.source_size(), 0.0);
  if (config.compute_gradient) result.gradient.assign(tree.source_size(), Vec3{});
  if (n == 0) return result;

  const DegreeAssignment degrees = assign_degrees(tree, config);
  ThreadPool pool(config.threads);
  const auto& pos = tree.positions();
  const auto& q = tree.charges();
  const bool want_grad = config.compute_gradient;

  // ---- Upward pass: per-node P2M (see barnes_hut.hpp for why not M2M).
  std::vector<MultipoleExpansion> multipole;
  {
    const ScopedTimer phase(obs::span::kFmmP2m, &result.stats.build_seconds);
    multipole = build_multipoles(tree, degrees.degree, q, &pool, obs::span::kFmmP2mWorker);
  }

  Timer eval_timer;
  // ---- Dual-tree traversal (serial; cheap relative to the math phases).
  Traversal trav;
  trav.tree = &tree;
  trav.alpha = config.alpha;
  trav.lists.m2l_sources.resize(tree.num_nodes());
  trav.lists.p2p_sources.resize(tree.num_nodes());
  {
    const ScopedTimer phase(obs::span::kFmmTraverse);
    trav.traverse(0, 0);
  }

  // ---- M2L phase: parallel over target nodes.
  std::vector<LocalExpansion> local(tree.num_nodes());
  std::vector<char> has_local(tree.num_nodes(), 0);
  // Per-thread tallies; the FMM counts its M2L conversions in the m2p slots.
  std::vector<WalkTally> tstats(pool.width());
  const auto& m2l_targets = trav.lists.m2l_targets;
  {
    const ScopedTimer phase(obs::span::kFmmM2l);
    parallel_for(pool, m2l_targets.size(), 1,
                 [&](std::size_t b, std::size_t e, unsigned t) {
      for (std::size_t k = b; k < e; ++k) {
        const int a = m2l_targets[k];
        const TreeNode& ta = tree.node(static_cast<std::size_t>(a));
        LocalExpansion& l = local[static_cast<std::size_t>(a)];
        l.reset(degrees.degree[static_cast<std::size_t>(a)]);
        has_local[static_cast<std::size_t>(a)] = 1;
        for (int src : trav.lists.m2l_sources[static_cast<std::size_t>(a)]) {
          const TreeNode& tb = tree.node(static_cast<std::size_t>(src));
          if (config.use_rotation_translations) {
            m2l_rotated(multipole[static_cast<std::size_t>(src)], tb.center, l, ta.center);
          } else {
            m2l(multipole[static_cast<std::size_t>(src)], tb.center, l, ta.center);
          }
          const int pb = multipole[static_cast<std::size_t>(src)].degree();
          const int pl = l.degree();
          WalkTally& s = tstats[t];
          ++s.m2p;
          // M2L is an O(p^4) dense translation: count
          // (p_src+1)^2 (p_dst+1)^2 term-operations so costs are comparable
          // with Barnes-Hut's M2P count.
          s.terms += static_cast<std::uint64_t>(pb + 1) * (pb + 1) *
                     static_cast<std::uint64_t>(pl + 1) * (pl + 1);
          s.min_deg = std::min(s.min_deg, std::min(pb, pl));
          s.max_deg = std::max(s.max_deg, std::max(pb, pl));
          obs::count_slot(s.degree_used, pb);
          obs::count_slot(s.degree_used, pl);
          obs::count_slot(s.m2p_by_level, ta.level);
          const double d = distance(ta.center, tb.center);
          s.max_bound =
              std::max(s.max_bound, mac_error_bound(tb.abs_charge, d, config.alpha, pb));
        }
      }
    },
                 nullptr, obs::span::kFmmM2lWorker);
  }

  // ---- Downward pass: L2L level by level (parents of level L-1 are final
  // before level L starts), leaves evaluated with L2P. Parallel within a
  // level; each node only writes its own local / its own particle range.
  TargetRows rows(n, 1, want_grad, /*bound_row=*/false);
  std::vector<double>& phi = rows.phi;
  std::vector<Vec3>& grad = rows.grad;
  std::vector<std::vector<int>> by_level(static_cast<std::size_t>(tree.height()));
  for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
    by_level[static_cast<std::size_t>(tree.node(i).level)].push_back(static_cast<int>(i));
  }
  {
  const ScopedTimer downward_phase(obs::span::kFmmDownward);
  for (const auto& level_nodes : by_level) {
    parallel_for(pool, level_nodes.size(), 4, [&](std::size_t b, std::size_t e, unsigned t) {
      for (std::size_t k = b; k < e; ++k) {
        const int i = level_nodes[k];
        const TreeNode& node = tree.node(static_cast<std::size_t>(i));
        if (node.count() == 0) continue;
        // Pull the parent's finalized local down into this node.
        if (node.parent >= 0 && has_local[static_cast<std::size_t>(node.parent)]) {
          LocalExpansion& l = local[static_cast<std::size_t>(i)];
          if (!has_local[static_cast<std::size_t>(i)]) {
            l.reset(degrees.degree[static_cast<std::size_t>(i)]);
            has_local[static_cast<std::size_t>(i)] = 1;
          }
          if (config.use_rotation_translations) {
            l2l_rotated(local[static_cast<std::size_t>(node.parent)],
                        tree.node(static_cast<std::size_t>(node.parent)).center, l,
                        node.center);
          } else {
            l2l(local[static_cast<std::size_t>(node.parent)],
                tree.node(static_cast<std::size_t>(node.parent)).center, l, node.center);
          }
        }
        if (node.is_leaf() && has_local[static_cast<std::size_t>(i)]) {
          const LocalExpansion& l = local[static_cast<std::size_t>(i)];
          WalkTally& s = tstats[t];
          for (std::size_t pi = node.begin; pi < node.end; ++pi) {
            if (want_grad) {
              const PotentialGrad pg = l2p_grad(l, node.center, pos[pi]);
              phi[pi] += pg.potential;
              grad[pi] += pg.gradient;
            } else {
              phi[pi] += l2p(l, node.center, pos[pi]);
            }
            const int ld = l.degree();
            s.terms += static_cast<std::uint64_t>(ld + 1) * (ld + 1);
            s.min_deg = std::min(s.min_deg, ld);
            s.max_deg = std::max(s.max_deg, ld);
            obs::count_slot(s.degree_used, ld);
          }
        }
      }
    }, nullptr, obs::span::kFmmDownwardWorker);
  }
  }

  // ---- P2P phase: parallel over target leaves.
  const auto& p2p_targets = trav.lists.p2p_targets;
  {
  const ScopedTimer p2p_phase(obs::span::kFmmP2p);
  parallel_for(pool, p2p_targets.size(), 1, [&](std::size_t b, std::size_t e, unsigned t) {
    for (std::size_t k = b; k < e; ++k) {
      const int a = p2p_targets[k];
      const TreeNode& ta = tree.node(static_cast<std::size_t>(a));
      WalkTally& s = tstats[t];
      for (int src : trav.lists.p2p_sources[static_cast<std::size_t>(a)]) {
        const TreeNode& tb = tree.node(static_cast<std::size_t>(src));
        const std::span<const Vec3> bpos(pos.data() + tb.begin, tb.count());
        const std::span<const double> bq(q.data() + tb.begin, tb.count());
        for (std::size_t pi = ta.begin; pi < ta.end; ++pi) {
          if (want_grad) {
            const PotentialGrad pg = p2p_grad(pos[pi], bpos, bq);
            phi[pi] += pg.potential;
            grad[pi] += pg.gradient;
          } else {
            phi[pi] += p2p(pos[pi], bpos, bq);
          }
        }
        const std::uint64_t pairs = static_cast<std::uint64_t>(ta.count()) * tb.count();
        s.p2p += pairs;
        obs::count_slot(s.p2p_by_level, ta.level, pairs);
      }
    }
  }, nullptr, obs::span::kFmmP2pWorker);
  }
  result.stats.eval_seconds = eval_timer.seconds();

  WalkTally total;
  for (const WalkTally& s : tstats) total.merge(s);
  result.stats.multipole_terms = total.terms;
  result.stats.m2l_count = total.m2p;
  result.stats.p2p_pairs = total.p2p;
  result.stats.max_interaction_bound = total.max_bound;
  // Degrees *actually used* in M2L/L2P (0/0 when everything went P2P).
  result.stats.min_degree_used = total.max_deg >= 0 ? total.min_deg : 0;
  result.stats.max_degree_used = total.max_deg >= 0 ? total.max_deg : 0;
  result.stats.reference_charge = degrees.reference_charge;

  obs::Registry& reg = obs::registry();
  reg.counter(obs::metric::kFmmMultipoleTerms).add(result.stats.multipole_terms);
  reg.counter(obs::metric::kFmmM2lCount).add(result.stats.m2l_count);
  reg.counter(obs::metric::kFmmP2pPairs).add(result.stats.p2p_pairs);
  reg.gauge(obs::metric::kFmmMaxInteractionBound).record_max(result.stats.max_interaction_bound);
  obs::flush_counts(obs::metric::kFmmM2lPerLevel, total.m2p_by_level);
  obs::flush_counts(obs::metric::kFmmP2pPerLevel, total.p2p_by_level);
  obs::flush_counts(obs::metric::kFmmDegreeUsed, total.degree_used);

  rows.scatter(tree, /*self=*/true, {&result, 1});
  TREECODE_ASSERT_EVAL_INVARIANTS(tree, degrees, config, result, tree.source_size(),
                                  "evaluate_fmm");
  return result;
}

}  // namespace treecode
