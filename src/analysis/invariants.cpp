#include "analysis/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "engine/eval_plan.hpp"
#include "multipole/error_bounds.hpp"
#include "obs/reqtrace.hpp"
#include "multipole/harmonics.hpp"

namespace treecode::analysis {

namespace {

/// Relative tolerance for recomputed floating-point aggregates (charge
/// sums, radii). Aggregation order differs between the builder and the
/// checker, so exact equality is not expected; 1e-9 relative leaves three
/// orders of magnitude headroom over double summation error at n = 10^6
/// while still catching any genuine bookkeeping bug.
constexpr double kRelTol = 1e-9;

[[nodiscard]] bool close(double a, double b, double scale) noexcept {
  return std::abs(a - b) <= kRelTol * std::max({1.0, std::abs(scale), std::abs(a), std::abs(b)});
}

/// printf-style violation formatting keeps call sites one line each.
template <typename... Args>
void fail(InvariantReport& report, const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  report.add(buf);
}

[[nodiscard]] bool finite(const Vec3& v) noexcept {
  return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

}  // namespace

std::string InvariantReport::summary() const {
  if (ok()) {
    return "invariants ok (" + std::to_string(nodes_checked) + " nodes, " +
           std::to_string(particles_checked) + " particles)";
  }
  std::string s = std::to_string(violations.size()) + " invariant violation(s):";
  const std::size_t shown = std::min<std::size_t>(violations.size(), 20);
  for (std::size_t i = 0; i < shown; ++i) s += "\n  " + violations[i];
  if (shown < violations.size()) {
    s += "\n  ... and " + std::to_string(violations.size() - shown) + " more";
  }
  return s;
}

InvariantError::InvariantError(const InvariantReport& report)
    : std::logic_error(report.summary()), report_(report) {}

void require(const InvariantReport& report, const char* context) {
  const double violations = static_cast<double>(report.violations.size());
  if (report.ok()) {
    obs::reqtrace::record_event(context, violations);
    return;
  }
  // Keep the request's trace and dump it before the unwind destroys the
  // evaluation state the events describe.
  obs::reqtrace::trigger(context, violations);
  InvariantReport prefixed = report;
  for (auto& v : prefixed.violations) v = std::string(context) + ": " + v;
  throw InvariantError(prefixed);
}

InvariantReport check_nodes(std::span<const TreeNode> nodes, std::span<const Vec3> positions,
                            std::span<const double> charges) {
  InvariantReport report;
  report.nodes_checked = nodes.size();
  report.particles_checked = positions.size();
  if (nodes.empty()) {
    report.add("tree has no nodes (even an empty tree has a root)");
    return report;
  }
  if (positions.size() != charges.size()) {
    fail(report, "positions/charges size mismatch: %zu vs %zu", positions.size(),
         charges.size());
    return report;
  }
  const std::size_t n = positions.size();
  const int num_nodes = static_cast<int>(nodes.size());

  const TreeNode& root = nodes.front();
  if (root.parent != -1) fail(report, "root has parent %d", root.parent);
  if (root.level != 0) fail(report, "root level is %d, want 0", root.level);
  if (root.begin != 0 || root.end != n) {
    fail(report, "root range [%zu, %zu) does not cover all %zu particles", root.begin,
         root.end, n);
  }

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const TreeNode& node = nodes[i];

    // ---- Index topology.
    if (node.begin > node.end || node.end > n) {
      fail(report, "node %zu: bad particle range [%zu, %zu) with n=%zu", i, node.begin,
           node.end, n);
      continue;  // downstream checks would read out of bounds
    }
    if (node.num_children < 0 || node.num_children > 8) {
      fail(report, "node %zu: num_children=%d outside [0, 8]", i, node.num_children);
      continue;
    }
    if (!node.is_leaf()) {
      if (node.first_child <= static_cast<int>(i) ||
          node.first_child + node.num_children > num_nodes) {
        fail(report, "node %zu: children [%d, %d) out of range (nodes=%d)", i,
             node.first_child, node.first_child + node.num_children, num_nodes);
        continue;
      }
      if (node.num_children == 0) {
        fail(report, "node %zu: first_child=%d set but num_children=0", i, node.first_child);
      }
      // Children partition the parent's particle range, in order, and sit
      // on a deeper level. (With chain collapsing levels may jump by more
      // than one; they must still strictly increase.)
      std::size_t cursor = node.begin;
      for (int c = 0; c < node.num_children; ++c) {
        const TreeNode& child = nodes[static_cast<std::size_t>(node.first_child + c)];
        if (child.parent != static_cast<int>(i)) {
          fail(report, "node %d: parent link is %d, want %zu", node.first_child + c,
               child.parent, i);
        }
        if (child.begin != cursor) {
          fail(report, "node %d: begins at %zu, expected %zu (children must partition)",
               node.first_child + c, child.begin, cursor);
        }
        if (child.level <= node.level) {
          fail(report, "node %d: level %d not deeper than parent level %d",
               node.first_child + c, child.level, node.level);
        }
        if (child.count() == 0) {
          fail(report, "node %d: empty child (splitter only materializes nonempty runs)",
               node.first_child + c);
        }
        cursor = child.end;
      }
      if (cursor != node.end) {
        fail(report, "node %zu: children end at %zu, parent ends at %zu", i, cursor,
             node.end);
      }
    }

    if (node.count() == 0) continue;  // geometric checks need members

    // ---- Charge conservation: A = sum |q|, Q = sum q over members.
    double abs_q = 0.0;
    double net_q = 0.0;
    for (std::size_t p = node.begin; p < node.end; ++p) {
      abs_q += std::abs(charges[p]);
      net_q += charges[p];
    }
    if (!close(node.abs_charge, abs_q, abs_q)) {
      fail(report, "node %zu: abs_charge %.17g != recomputed %.17g", i, node.abs_charge,
           abs_q);
    }
    if (!close(node.net_charge, net_q, abs_q)) {
      fail(report, "node %zu: net_charge %.17g != recomputed %.17g", i, node.net_charge,
           net_q);
    }
    // Children's aggregates must also sum to the parent's: catches a
    // builder that finalizes nodes from stale ranges even when each node
    // is internally consistent with its own (wrong) range.
    if (!node.is_leaf() && node.num_children > 0) {
      double child_abs = 0.0;
      double child_net = 0.0;
      for (int c = 0; c < node.num_children; ++c) {
        const TreeNode& child = nodes[static_cast<std::size_t>(node.first_child + c)];
        child_abs += child.abs_charge;
        child_net += child.net_charge;
      }
      if (!close(node.abs_charge, child_abs, abs_q)) {
        fail(report, "node %zu: children abs_charge sum %.17g != parent %.17g", i,
             child_abs, node.abs_charge);
      }
      if (!close(node.net_charge, child_net, abs_q)) {
        fail(report, "node %zu: children net_charge sum %.17g != parent %.17g", i,
             child_net, node.net_charge);
      }
    }

    // ---- Bounding-sphere containment (the MAC's load-bearing geometry).
    if (!finite(node.center) || !std::isfinite(node.radius) || node.radius < 0.0) {
      fail(report, "node %zu: non-finite or negative sphere (radius %.17g)", i, node.radius);
      continue;
    }
    const double diag = node.box.empty() ? 0.0 : norm(node.box.extents());
    double max_member_dist = 0.0;
    for (std::size_t p = node.begin; p < node.end; ++p) {
      max_member_dist = std::max(max_member_dist, distance(positions[p], node.center));
    }
    if (max_member_dist > node.radius * (1.0 + kRelTol) + kRelTol * diag) {
      fail(report, "node %zu: member at distance %.17g outside radius %.17g", i,
           max_member_dist, node.radius);
    }
    if (!close(node.radius, max_member_dist, diag)) {
      fail(report, "node %zu: radius %.17g != max member distance %.17g (sphere not tight)",
           i, node.radius, max_member_dist);
    }
    // The expansion center is a convex combination of member positions, so
    // it lies in the cell (up to tolerance) and within the cell diagonal of
    // any corner; the radius can never exceed the cell diagonal.
    if (node.radius > diag * (1.0 + kRelTol) && diag > 0.0) {
      fail(report, "node %zu: radius %.17g exceeds cell diagonal %.17g", i, node.radius,
           diag);
    }
    if (!node.box.empty()) {
      const Vec3 slack = node.box.extents() * kRelTol + Vec3{kRelTol, kRelTol, kRelTol};
      if (node.center.x < node.box.lo.x - slack.x || node.center.x > node.box.hi.x + slack.x ||
          node.center.y < node.box.lo.y - slack.y || node.center.y > node.box.hi.y + slack.y ||
          node.center.z < node.box.lo.z - slack.z || node.center.z > node.box.hi.z + slack.z) {
        fail(report, "node %zu: expansion center outside its cell", i);
      }
    }
    // Child center containment: a child's center is a convex combination
    // of a *subset* of this node's members, all within node.radius of
    // node.center, so it must lie inside this node's sphere.
    if (!node.is_leaf()) {
      for (int c = 0; c < node.num_children; ++c) {
        const TreeNode& child = nodes[static_cast<std::size_t>(node.first_child + c)];
        if (child.count() == 0) continue;
        const double d = distance(child.center, node.center);
        if (d > node.radius * (1.0 + kRelTol) + kRelTol * diag) {
          fail(report, "node %zu: child %d center at distance %.17g outside radius %.17g",
               i, node.first_child + c, d, node.radius);
        }
      }
    }
  }
  return report;
}

InvariantReport check_tree(const Tree& tree) {
  InvariantReport report = check_nodes(tree.nodes(), tree.positions(), tree.charges());

  // ---- Tree-level aggregates recomputed from the node array.
  int height = 0;
  for (const TreeNode& node : tree.nodes()) height = std::max(height, node.level + 1);
  if (height != tree.height()) {
    fail(report, "height %d != recomputed %d", tree.height(), height);
  }
  std::vector<std::size_t> level_counts(static_cast<std::size_t>(height), 0);
  double min_leaf = std::numeric_limits<double>::infinity();
  double min_density = std::numeric_limits<double>::infinity();
  for (const TreeNode& node : tree.nodes()) {
    if (node.level >= 0 && node.level < height) {
      ++level_counts[static_cast<std::size_t>(node.level)];
    }
    if (node.is_leaf() && node.count() > 0 && node.abs_charge > 0.0) {
      min_leaf = std::min(min_leaf, node.abs_charge);
      if (node.size() > 0.0) {
        min_density = std::min(min_density, node.abs_charge / node.size());
      }
    }
  }
  if (level_counts != tree.level_counts()) {
    fail(report, "level_counts disagree with a recount over %zu nodes", tree.num_nodes());
  }
  if (std::isfinite(min_leaf) && !close(tree.min_leaf_abs_charge(), min_leaf, min_leaf)) {
    fail(report, "min_leaf_abs_charge %.17g != recomputed %.17g", tree.min_leaf_abs_charge(),
         min_leaf);
  }
  if (std::isfinite(min_density) &&
      !close(tree.min_leaf_charge_density(), min_density, min_density)) {
    fail(report, "min_leaf_charge_density %.17g != recomputed %.17g",
         tree.min_leaf_charge_density(), min_density);
  }
  // Dropped + kept partitions the source system.
  if (tree.num_particles() + tree.dropped().size() != tree.source_size()) {
    fail(report, "kept %zu + dropped %zu != source size %zu", tree.num_particles(),
         tree.dropped().size(), tree.source_size());
  }
  // original_index must be a permutation of the kept caller indices.
  std::vector<char> seen(tree.source_size(), 0);
  for (std::size_t idx : tree.original_index()) {
    if (idx >= tree.source_size() || seen[idx] != 0) {
      fail(report, "original_index entry %zu repeated or out of range", idx);
      break;
    }
    seen[idx] = 1;
  }
  return report;
}

InvariantReport check_degrees(const Tree& tree, const DegreeAssignment& degrees,
                              const EvalConfig& config) {
  InvariantReport report;
  report.nodes_checked = tree.num_nodes();
  if (degrees.degree.size() != tree.num_nodes()) {
    fail(report, "degree table has %zu entries for %zu nodes", degrees.degree.size(),
         tree.num_nodes());
    return report;
  }
  // Independently re-derive the reference the assignment claims to use.
  if (config.mode == DegreeMode::kAdaptive &&
      config.reference != DegreeReference::kExplicit) {
    const bool density = config.law == DegreeLaw::kChargeOverSize;
    double expected_ref = 0.0;
    switch (config.reference) {
      case DegreeReference::kMinLeaf:
        expected_ref = density ? tree.min_leaf_charge_density() : tree.min_leaf_abs_charge();
        break;
      case DegreeReference::kMeanLeaf:
        expected_ref =
            density ? tree.mean_leaf_charge_density() : tree.mean_leaf_abs_charge();
        break;
      case DegreeReference::kExplicit:
        break;
    }
    if (!close(degrees.reference_charge, expected_ref, expected_ref)) {
      fail(report, "reference charge %.17g != tree's %.17g", degrees.reference_charge,
           expected_ref);
    }
  }
  int table_max = config.degree;
  for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
    const TreeNode& node = tree.node(i);
    const int p = degrees.degree[i];
    if (p < 0 || p > kMaxDegree) {
      fail(report, "node %zu: degree %d outside library range [0, %d]", i, p, kMaxDegree);
      continue;
    }
    table_max = std::max(table_max, p);
    int expected = config.degree;
    if (config.mode == DegreeMode::kAdaptive) {
      double metric = node.abs_charge;
      if (config.law == DegreeLaw::kChargeOverSize && node.size() > 0.0) {
        metric /= node.size();
      }
      expected = adaptive_degree(metric, degrees.reference_charge, config.alpha,
                                 config.degree, config.max_degree);
    }
    if (p != expected) {
      fail(report, "node %zu: degree %d != Theorem-3 law's %d", i, p, expected);
    }
    // Under the literal Theorem-3 law the metric A is monotone up the tree
    // (a parent aggregates its children's charge), so degrees must be too.
    if (config.mode == DegreeMode::kAdaptive && config.law == DegreeLaw::kCharge &&
        node.parent >= 0) {
      const int parent_p = degrees.degree[static_cast<std::size_t>(node.parent)];
      if (parent_p < p) {
        fail(report, "node %zu: degree %d exceeds parent's %d (A is monotone up the tree)",
             i, p, parent_p);
      }
    }
  }
  if (degrees.max_degree != table_max) {
    fail(report, "assignment max_degree %d != table max %d", degrees.max_degree, table_max);
  }
  if (degrees.min_degree < 0 || degrees.min_degree > degrees.max_degree) {
    fail(report, "assignment min_degree %d outside [0, %d]", degrees.min_degree,
         degrees.max_degree);
  }
  return report;
}

InvariantReport check_eval_result(const EvalResult& result, const EvalConfig& config,
                                  std::size_t expected_size,
                                  const DegreeAssignment* degrees) {
  InvariantReport report;
  report.particles_checked = result.potential.size();
  if (result.potential.size() != expected_size) {
    fail(report, "potential has %zu entries, want %zu", result.potential.size(),
         expected_size);
  }
  if (config.compute_gradient && result.gradient.size() != expected_size) {
    fail(report, "gradient has %zu entries, want %zu", result.gradient.size(),
         expected_size);
  }
  const bool want_bounds = config.track_error_bounds || config.enforce_budget;
  for (std::size_t i = 0; i < result.potential.size(); ++i) {
    if (!std::isfinite(result.potential[i])) {
      fail(report, "potential[%zu] is non-finite", i);
      break;  // one poisoned value implies a poisoned region; keep it short
    }
  }
  for (std::size_t i = 0; i < result.gradient.size(); ++i) {
    if (!finite(result.gradient[i])) {
      fail(report, "gradient[%zu] is non-finite", i);
      break;
    }
  }
  for (std::size_t i = 0; i < result.error_bound.size(); ++i) {
    const double b = result.error_bound[i];
    if (!std::isfinite(b) || b < 0.0) {
      fail(report, "error_bound[%zu] = %.17g is not a bound", i, b);
      break;
    }
    if (config.enforce_budget && b > config.error_budget * (1.0 + kRelTol)) {
      fail(report, "error_bound[%zu] = %.17g exceeds enforced budget %.17g", i, b,
           config.error_budget);
      break;
    }
  }
  if (want_bounds && result.error_bound.size() != expected_size) {
    fail(report, "error_bound has %zu entries, want %zu", result.error_bound.size(),
         expected_size);
  }
  if (degrees != nullptr && result.stats.max_degree_used > degrees->max_degree) {
    fail(report, "stats report degree %d used but the table max is %d",
         result.stats.max_degree_used, degrees->max_degree);
  }
  if (result.stats.min_degree_used > result.stats.max_degree_used) {
    fail(report, "stats degree range [%d, %d] is inverted", result.stats.min_degree_used,
         result.stats.max_degree_used);
  }
  return report;
}

InvariantReport check_plan(const engine::EvalPlan& plan, const Tree& tree,
                           const DegreeAssignment& degrees, const EvalConfig& config) {
  using engine::EvalPlan;
  InvariantReport report = check_degrees(tree, degrees, config);
  const std::size_t n = plan.num_targets();
  const std::size_t num_nodes = tree.num_nodes();
  const std::size_t num_particles = tree.num_particles();
  report.particles_checked = n;

  // ---- Schedule layout.
  if (plan.offsets.size() != n + 1) {
    fail(report, "offsets has %zu entries for %zu targets", plan.offsets.size(), n);
    return report;
  }
  if (n > 0 && plan.offsets.front() != 0) {
    fail(report, "offsets[0] = %llu, want 0",
         static_cast<unsigned long long>(plan.offsets.front()));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (plan.offsets[i] > plan.offsets[i + 1]) {
      fail(report, "offsets not monotone at target %zu", i);
      return report;
    }
  }
  if (!plan.offsets.empty() && plan.offsets.back() != plan.entries.size()) {
    fail(report, "offsets end at %llu but there are %zu entries",
         static_cast<unsigned long long>(plan.offsets.back()), plan.entries.size());
    return report;
  }
  const bool want_bounds = config.track_error_bounds || config.enforce_budget;
  if (want_bounds && plan.entry_bounds.size() != plan.entries.size()) {
    fail(report, "entry_bounds has %zu entries, want %zu", plan.entry_bounds.size(),
         plan.entries.size());
    return report;
  }
  if (plan.target_cost.size() != n) {
    fail(report, "target_cost has %zu entries for %zu targets", plan.target_cost.size(), n);
    return report;
  }
  if (!std::is_sorted(plan.m2p_nodes.begin(), plan.m2p_nodes.end()) ||
      std::adjacent_find(plan.m2p_nodes.begin(), plan.m2p_nodes.end()) !=
          plan.m2p_nodes.end()) {
    fail(report, "m2p_nodes is not sorted-unique");
  }
  std::vector<char> skipped(n, 0);
  for (const std::uint32_t s : plan.skipped_targets) {
    if (s >= n) {
      fail(report, "skipped target %u out of range (targets=%zu)", s, n);
      return report;
    }
    skipped[s] = 1;
  }
  // ---- Per-entry and per-target checks.
  std::uint64_t m2p_count = 0;
  std::uint64_t p2p_pairs = 0;
  std::uint64_t terms = 0;
  std::vector<char> referenced(num_nodes, 0);
  std::vector<std::pair<std::size_t, std::size_t>> intervals;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t begin = plan.offsets[i];
    const std::uint64_t end = plan.offsets[i + 1];
    if (skipped[i] != 0) {
      if (begin != end) {
        fail(report, "skipped target %zu owns %llu entries, want 0", i,
             static_cast<unsigned long long>(end - begin));
      }
      continue;
    }
    const Vec3 x = plan.targets[i];
    double my_bound = 0.0;
    std::uint64_t cost = 0;
    intervals.clear();
    bool structural_failure = false;
    for (std::uint64_t idx = begin; idx < end && !structural_failure; ++idx) {
      const std::int32_t e = plan.entries[idx];
      const std::int32_t ni = EvalPlan::node_of(e);
      if (ni < 0 || static_cast<std::size_t>(ni) >= num_nodes) {
        fail(report, "target %zu: entry node %d out of range (nodes=%zu)", i, ni, num_nodes);
        structural_failure = true;
        break;
      }
      const TreeNode& node = tree.node(static_cast<std::size_t>(ni));
      if (node.count() == 0) {
        fail(report, "target %zu: entry references empty node %d", i, ni);
      }
      intervals.emplace_back(node.begin, node.end);
      if (EvalPlan::is_p2p(e)) {
        if (!node.is_leaf()) {
          fail(report, "target %zu: P2P entry on non-leaf node %d", i, ni);
        }
        p2p_pairs += node.count();
        cost += node.count();
      } else {
        // Every accepted cluster must satisfy the alpha-MAC at this target.
        const double r = distance(x, node.center);
        if (!(r > 0.0) || node.radius > config.alpha * r * (1.0 + kRelTol)) {
          fail(report, "target %zu: M2P node %d violates the MAC (a=%.17g, r=%.17g)", i,
               ni, node.radius, r);
        }
        referenced[static_cast<std::size_t>(ni)] = 1;
        const auto p = static_cast<std::uint64_t>(degrees.degree[static_cast<std::size_t>(ni)]);
        terms += (p + 1) * (p + 1);
        cost += (p + 1) * (p + 1);
        ++m2p_count;
        if (want_bounds) my_bound += plan.entry_bounds[idx];
      }
    }
    if (structural_failure) continue;
    if (config.enforce_budget && my_bound > config.error_budget * (1.0 + kRelTol)) {
      fail(report, "target %zu: accumulated bound %.17g exceeds budget %.17g", i, my_bound,
           config.error_budget);
    }
    if (cost != plan.target_cost[i]) {
      fail(report, "target %zu: cost %llu != recorded %llu", i,
           static_cast<unsigned long long>(cost),
           static_cast<unsigned long long>(plan.target_cost[i]));
    }
    // P2P union M2P must cover every source particle exactly once: the
    // entry intervals, sorted, form an exact partition of [0, n_src).
    std::sort(intervals.begin(), intervals.end());
    std::size_t cursor = 0;
    bool partition_ok = true;
    for (const auto& [b, e2] : intervals) {
      if (b != cursor) {
        partition_ok = false;
        break;
      }
      cursor = e2;
    }
    if (!partition_ok || cursor != num_particles) {
      fail(report,
           "target %zu: entries do not partition the %zu sources exactly once", i,
           num_particles);
    }
  }

  // ---- Refresh set: exactly the nodes M2P entries reference.
  for (const std::int32_t ni : plan.m2p_nodes) {
    if (ni < 0 || static_cast<std::size_t>(ni) >= num_nodes) {
      fail(report, "m2p_nodes entry %d out of range (nodes=%zu)", ni, num_nodes);
    } else if (referenced[static_cast<std::size_t>(ni)] == 0) {
      fail(report, "m2p_nodes lists node %d but no M2P entry references it", ni);
    } else {
      referenced[static_cast<std::size_t>(ni)] = 2;
    }
  }
  for (std::size_t ni = 0; ni < num_nodes; ++ni) {
    if (referenced[ni] == 1) {
      fail(report, "M2P entries reference node %zu but m2p_nodes omits it", ni);
    }
  }

  // ---- Cached statistics agree with the recount.
  if (plan.stats.m2p_count != m2p_count) {
    fail(report, "stats.m2p_count %llu != recount %llu",
         static_cast<unsigned long long>(plan.stats.m2p_count),
         static_cast<unsigned long long>(m2p_count));
  }
  if (plan.stats.p2p_pairs != p2p_pairs) {
    fail(report, "stats.p2p_pairs %llu != recount %llu",
         static_cast<unsigned long long>(plan.stats.p2p_pairs),
         static_cast<unsigned long long>(p2p_pairs));
  }
  if (plan.stats.multipole_terms != terms) {
    fail(report, "stats.multipole_terms %llu != recount %llu",
         static_cast<unsigned long long>(plan.stats.multipole_terms),
         static_cast<unsigned long long>(terms));
  }
  return report;
}

void assert_tree_invariants(const Tree& tree, const char* context) {
  require(check_tree(tree), context);
}

void assert_eval_invariants(const Tree& tree, const DegreeAssignment& degrees,
                            const EvalConfig& config, const EvalResult& result,
                            std::size_t expected_size, const char* context) {
  require(check_degrees(tree, degrees, config), context);
  require(check_eval_result(result, config, expected_size, &degrees), context);
}

void assert_plan_invariants(const engine::EvalPlan& plan, const Tree& tree,
                            const DegreeAssignment& degrees, const EvalConfig& config,
                            const char* context) {
  require(check_plan(plan, tree, degrees, config), context);
}

}  // namespace treecode::analysis
