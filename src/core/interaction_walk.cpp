#include "core/interaction_walk.hpp"

#include <bit>

#include "multipole/operators.hpp"
#include "parallel/parallel_for.hpp"

namespace treecode {

void WalkTally::merge(const WalkTally& other) noexcept {
  terms += other.terms;
  m2p += other.m2p;
  p2p += other.p2p;
  budget_refine += other.budget_refine;
  budget_refine_leaf += other.budget_refine_leaf;
  max_bound = std::max(max_bound, other.max_bound);
  min_deg = std::min(min_deg, other.min_deg);
  max_deg = std::max(max_deg, other.max_deg);
  for (std::size_t i = 0; i < m2p_by_level.size(); ++i) {
    m2p_by_level[i] += other.m2p_by_level[i];
    p2p_by_level[i] += other.p2p_by_level[i];
  }
  for (std::size_t i = 0; i < degree_used.size(); ++i) degree_used[i] += other.degree_used[i];
}

void WalkTally::write(EvalStats& stats) const noexcept {
  stats.multipole_terms = terms;
  stats.m2p_count = m2p;
  stats.p2p_pairs = p2p;
  stats.budget_refinements = budget_refine;
  stats.budget_refinements_leaf = budget_refine_leaf;
  stats.max_interaction_bound = max_bound;
  // No accepted cluster (tiny system, or the budget demoted everything to
  // P2P): no degree was used.
  stats.min_degree_used = max_deg >= 0 ? min_deg : 0;
  stats.max_degree_used = max_deg >= 0 ? max_deg : 0;
}

WorkStats InteractionWalk::sweep(ThreadPool& pool, std::size_t n, std::size_t block_size,
                                 const char* worker_span,
                                 const std::function<void(std::size_t, unsigned)>& body) {
  return parallel_for_blocked(
      pool, n, block_size,
      [&](std::size_t begin, std::size_t end, unsigned t) -> std::uint64_t {
        const WalkTally& a = lanes_[t].tally;
        const std::uint64_t before = a.terms + a.p2p;
        for (std::size_t i = begin; i < end; ++i) body(i, t);
        return (a.terms + a.p2p) - before;
      },
      nullptr, worker_span);
}

WalkTally InteractionWalk::total() const noexcept {
  WalkTally sum;
  for (const Lane& lane : lanes_) sum.merge(lane.tally);
  return sum;
}

double DeferredM2p::flush(const Vec3& point) {
  for (std::uint64_t pending = degrees_; pending != 0; pending &= pending - 1) {
    std::vector<Pending>& list = by_degree_[static_cast<std::size_t>(std::countr_zero(pending))];
    std::size_t j = 0;
    for (; j + 2 <= list.size(); j += 2) {
      const Pending& a = list[j];
      const Pending& b = list[j + 1];
      const std::array<double, 2> pair = m2p_pair(*a.m, *a.center, *b.m, *b.center, point);
      terms_[a.slot] = pair[0];
      terms_[b.slot] = pair[1];
    }
    if (j < list.size()) terms_[list[j].slot] = m2p(*list[j].m, *list[j].center, point);
    list.clear();
  }
  degrees_ = 0;
  double phi = 0.0;
  for (const double term : terms_) phi += term;
  return phi;
}

void DeferredM2p::offer_audits(obs::audit::Reservoir& reservoir, std::uint64_t seed,
                               std::size_t target, std::span<const TreeNode> nodes) const {
  for (std::size_t ordinal = 0; ordinal < audits_.size(); ++ordinal) {
    const Audit& a = audits_[ordinal];
    reservoir.offer(audit_sample(seed, target, ordinal, a.node,
                                 nodes[static_cast<std::size_t>(a.node)], a.degree,
                                 terms_[a.slot], a.thm1, a.r));
  }
}

void TargetRows::scatter(const Tree& tree, bool self, std::span<EvalResult> results) const {
  const auto& orig = tree.original_index();
  for (std::size_t c = 0; c < results.size(); ++c) {
    EvalResult& r = results[c];
    const double* row = phi.data() + c * n;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t slot = self ? orig[i] : i;
      r.potential[slot] = row[i];
      if (!grad.empty()) r.gradient[slot] = grad[i];
      if (!bound.empty()) r.error_bound[slot] = bound[i];
    }
  }
}

std::vector<std::size_t> node_run_ends(std::size_t count, const NodeCost& cost,
                                       unsigned width) {
  constexpr std::size_t kRunNodes = 8;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < count; ++i) total += cost(i);
  const std::uint64_t share = std::max<std::uint64_t>(1, total / (4 * std::uint64_t{width}));
  std::vector<std::size_t> ends;
  std::size_t begin = 0;
  std::uint64_t run_cost = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t c = cost(i);
    if (i > begin && c >= share) {  // a heavy index starts its own run
      ends.push_back(i);
      begin = i;
      run_cost = 0;
    }
    run_cost += c;
    if (i + 1 - begin == kRunNodes || run_cost >= share) {
      ends.push_back(i + 1);
      begin = i + 1;
      run_cost = 0;
    }
  }
  if (begin < count) ends.push_back(count);
  return ends;
}

void for_each_node(ThreadPool* pool, std::size_t count, const NodeCost& cost,
                   const char* worker_span, const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || pool->width() <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  const std::vector<std::size_t> ends = node_run_ends(count, cost, pool->width());
  parallel_for(
      *pool, ends.size(), 1,
      [&](std::size_t b, std::size_t e, unsigned) {
        for (std::size_t r = b; r < e; ++r) {
          for (std::size_t i = r == 0 ? 0 : ends[r - 1]; i < ends[r]; ++i) fn(i);
        }
      },
      nullptr, worker_span);
}

std::vector<MultipoleExpansion> build_multipoles(const Tree& tree, std::span<const int> degree,
                                                 std::span<const double> charges,
                                                 ThreadPool* pool, const char* worker_span) {
  std::vector<MultipoleExpansion> multipoles(tree.nodes().size());
  const auto& pos = tree.positions();
  const NodeCost cost = [&](std::size_t i) { return p2m_cost(tree.node(i), degree[i]); };
  for_each_node(pool, multipoles.size(), cost, worker_span, [&](std::size_t i) {
    const TreeNode& node = tree.node(i);
    if (node.count() == 0) return;
    multipoles[i].reset(degree[i]);
    p2m(node.center, std::span<const Vec3>(pos.data() + node.begin, node.count()),
        charges.subspan(node.begin, node.count()), multipoles[i]);
  });
  return multipoles;
}

obs::audit::Sample audit_sample(std::uint64_t seed, std::size_t target, std::uint64_t ordinal,
                                int node_id, const TreeNode& node, int degree, double approx,
                                double bound, double r) noexcept {
  obs::audit::Sample s;
  s.key = obs::audit::sample_key(seed, target, ordinal);
  s.target = target;
  s.node = node_id;
  s.level = node.level;
  s.degree = degree;
  s.abs_charge = node.abs_charge;
  s.approx = approx;
  s.bound = bound;
  s.noise_scale = r > node.radius ? node.abs_charge / (r - node.radius) : 0.0;
  return s;
}

void finish_audit(std::span<const obs::audit::Reservoir> reservoirs, std::size_t k,
                  std::span<const Vec3> points, const Tree& tree,
                  std::span<const double> sorted_charges, EvalStats& stats) {
  const std::vector<obs::audit::Sample> winners = obs::audit::merge(reservoirs, k);
  const auto& pos = tree.positions();
  const obs::audit::Summary summary =
      obs::audit::finalize(winners, [&](const obs::audit::Sample& s) {
        const TreeNode& node = tree.node(static_cast<std::size_t>(s.node));
        return p2p(points[s.target],
                   std::span<const Vec3>(pos.data() + node.begin, node.count()),
                   sorted_charges.subspan(node.begin, node.count()),
                   /*softening2=*/0.0);
      });
  stats.audit_samples = summary.samples;
  stats.audit_bound_violations = summary.bound_violations;
  stats.audit_max_tightness = summary.max_tightness;
  stats.audit_mean_tightness = summary.mean_tightness;
}

}  // namespace treecode
