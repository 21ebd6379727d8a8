#pragma once

/// \file interaction_walk.hpp
/// The alpha-MAC tree walk, written once. Per target, a depth-first walk
/// accepts a cluster that passes the alpha-criterion, evaluates its
/// Theorem-1 bound at its Theorem-3 degree, and under budget enforcement
/// demotes a cluster whose bound would push the target's total past the
/// budget (recursing into the children, or exact P2P at a leaf). The walk
/// owns the decisions and the per-thread tally of them; a visitor decides
/// what an accepted cluster or a P2P leaf means: BarnesHutEvaluator
/// evaluates it on the spot, engine::EvalSession records it as a plan entry,
/// DipoleBarnesHutEvaluator evaluates dipole kernels (bounds off). Sharing
/// the decisions and their order is what makes a replay of a recorded plan
/// bitwise-equal to the fresh walk.

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "multipole/error_bounds.hpp"
#include "multipole/expansion.hpp"
#include "obs/audit.hpp"
#include "obs/instrument.hpp"
#include "parallel/thread_pool.hpp"
#include "tree/octree.hpp"

namespace treecode {

/// The alpha-criterion: accept the cluster when its radius-to-distance
/// ratio is at most alpha (and the point is strictly outside the cluster
/// sphere, which alpha < 1 implies for r > 0). `r_out` receives the distance.
inline bool mac_accepts(const TreeNode& node, const Vec3& point, double alpha,
                        double& r_out) noexcept {
  const double r = distance(point, node.center);
  r_out = r;
  return r > 0.0 && node.radius <= alpha * r;
}

/// What one sweep of walks decided, per thread; merged in thread order.
/// The FMM keeps the same tally, counting its M2L conversions as m2p.
struct WalkTally {
  std::uint64_t terms = 0;  ///< sum of (p+1)^2 over accepted clusters
  std::uint64_t m2p = 0;
  std::uint64_t p2p = 0;  ///< particle pairs
  std::uint64_t budget_refine = 0;
  std::uint64_t budget_refine_leaf = 0;
  double max_bound = 0.0;  ///< max Theorem-2 bound among accepted clusters
  /// Degrees actually accepted, not the degree table's range (which
  /// over-reports when budget enforcement demotes clusters).
  int min_deg = std::numeric_limits<int>::max();
  int max_deg = -1;
  obs::LevelCounts m2p_by_level{};
  obs::LevelCounts p2p_by_level{};
  obs::DegreeCounts degree_used{};

  void merge(const WalkTally& other) noexcept;
  /// Copy the interaction counts, refinements, Theorem-2 maximum and the
  /// degree range (0..0 when no cluster was accepted) into `stats`.
  void write(EvalStats& stats) const noexcept;
};

/// The decision rules of one walk.
struct WalkRules {
  double alpha = 0.5;
  std::span<const int> degree;  ///< Theorem-3 degree per node
  bool bounds = false;          ///< evaluate Theorem 1 per accepted cluster
  bool enforce = false;         ///< demote clusters that would exceed `budget`
  double budget = 0.0;
};

/// One parallel sweep of alpha-MAC walks over a set of targets.
class InteractionWalk {
 public:
  InteractionWalk(const Tree& tree, const WalkRules& rules, unsigned threads)
      : nodes_(tree.nodes()), rules_(rules), lanes_(threads) {}

  /// Walk target `x` on thread `t`. Calls on_m2p(node_id, node, r, thm1)
  /// for each accepted cluster (thm1 = 0 unless rules.bounds) and
  /// on_p2p(node_id, node) for each leaf evaluated directly, in DFS order.
  /// Returns the target's accumulated Theorem-1 bound.
  template <typename OnM2p, typename OnP2p>
  double target(const Vec3& x, unsigned t, OnM2p&& on_m2p, OnP2p&& on_p2p) {
    Lane& lane = lanes_[t];
    WalkTally& a = lane.tally;
    double bound = 0.0;
    lane.stack.clear();
    lane.stack.push_back(0);
    while (!lane.stack.empty()) {
      const int ni = lane.stack.back();
      lane.stack.pop_back();
      const auto nu = static_cast<std::size_t>(ni);
      const TreeNode& node = nodes_[nu];
      if (node.count() == 0) continue;
      const int deg = rules_.degree[nu];
      double r = 0.0;
      bool approximate = mac_accepts(node, x, rules_.alpha, r);
      // Theorem 1 with the actual cluster radius and distance — rigorous
      // and tighter than the alpha-form of Theorem 2.
      double thm1 = 0.0;
      if (approximate && rules_.bounds) {
        thm1 = multipole_error_bound(node.abs_charge, node.radius, r, deg);
        if (rules_.enforce && bound + thm1 > rules_.budget) {
          approximate = false;
          ++a.budget_refine;
          if (node.is_leaf()) ++a.budget_refine_leaf;
        }
      }
      if (approximate) {
        on_m2p(ni, node, r, thm1);
        a.terms += static_cast<std::uint64_t>(deg + 1) * static_cast<std::uint64_t>(deg + 1);
        ++a.m2p;
        a.min_deg = std::min(a.min_deg, deg);
        a.max_deg = std::max(a.max_deg, deg);
        obs::count_slot(a.degree_used, deg);
        obs::count_slot(a.m2p_by_level, node.level);
        a.max_bound = std::max(a.max_bound, mac_error_bound(node.abs_charge, r, rules_.alpha, deg));
        bound += thm1;
      } else if (node.is_leaf()) {
        on_p2p(ni, node);
        a.p2p += node.count();
        obs::count_slot(a.p2p_by_level, node.level, node.count());
      } else {
        for (int c = 0; c < node.num_children; ++c) lane.stack.push_back(node.first_child + c);
      }
    }
    return bound;
  }

  /// Run body(i, t) for every target i in [0, n), parallel over blocks of
  /// `block_size` targets. Each block reports the multipole terms plus P2P
  /// pairs its walks added as its cost. A body exception cancels the sweep
  /// and is rethrown here.
  WorkStats sweep(ThreadPool& pool, std::size_t n, std::size_t block_size,
                  const char* worker_span,
                  const std::function<void(std::size_t, unsigned)>& body);

  /// The per-thread tallies merged in thread order.
  [[nodiscard]] WalkTally total() const noexcept;

 private:
  /// One thread's tally and DFS stack, on cache lines of its own: a push or
  /// pop next to another thread's tally would bounce the line per visit.
  struct alignas(64) Lane {
    WalkTally tally;
    std::vector<int> stack;
  };
  const std::vector<TreeNode>& nodes_;
  WalkRules rules_;
  std::vector<Lane> lanes_;
};

/// One target's potential terms in walk order, with its on-the-fly M2P
/// deferred so that same-degree clusters run through m2p_pair() two at a
/// time. Per-thread scratch: start() a target, then defer() reserves the
/// next term slot for a cluster's M2P and files it under its degree, add()
/// appends a term already computed (P2P, a gradient evaluation's
/// potential). flush() evaluates the filed M2P into their
/// slots and returns 0.0 + the terms summed in slot order: the additions,
/// operands and order of the `phi += term` loop it replaces, since
/// m2p_pair() lanes are bitwise m2p().
class alignas(64) DeferredM2p {
 public:
  void start() noexcept {
    terms_.clear();
    audits_.clear();
  }

  /// Reserve the slot of m2p(m, center, point); both must outlive flush().
  std::size_t defer(const MultipoleExpansion& m, const Vec3& center) {
    const std::size_t slot = terms_.size();
    terms_.push_back(0.0);
    const auto p = static_cast<std::size_t>(m.degree());
    by_degree_[p].push_back({slot, &m, &center});
    degrees_ |= std::uint64_t{1} << p;
    return slot;
  }

  /// Append a finished term; returns its slot.
  std::size_t add(double term) {
    terms_.push_back(term);
    return terms_.size() - 1;
  }

  /// Note the accepted cluster whose term sits in `slot` for the audit;
  /// call in acceptance order.
  void note_audit(std::size_t slot, int node_id, int degree, double r, double thm1) {
    audits_.push_back({slot, node_id, degree, r, thm1});
  }

  /// Evaluate the deferred M2P at `point`, then sum the terms.
  double flush(const Vec3& point);

  /// Offer every noted cluster to `reservoir` with its flushed term as the
  /// approximation and its acceptance ordinal (0, 1, ...) in the key.
  void offer_audits(obs::audit::Reservoir& reservoir, std::uint64_t seed, std::size_t target,
                    std::span<const TreeNode> nodes) const;

 private:
  struct Pending {
    std::size_t slot;
    const MultipoleExpansion* m;
    const Vec3* center;
  };
  struct Audit {
    std::size_t slot;
    int node;
    int degree;
    double r;
    double thm1;
  };
  static_assert(kMaxDegree < 64, "degrees_ is a 64-bit mask");
  std::vector<double> terms_;
  std::array<std::vector<Pending>, kMaxDegree + 1> by_degree_;
  std::uint64_t degrees_ = 0;  ///< bit p set: by_degree_[p] is non-empty
  std::vector<Audit> audits_;
};

/// Sorted-order outputs of one sweep over n targets: k potential rows
/// (phi[c * n + i]) plus one gradient row and one bound row, each empty
/// when not produced.
struct TargetRows {
  TargetRows(std::size_t targets, std::size_t columns, bool grad_row, bool bound_row)
      : n(targets),
        phi(targets * columns, 0.0),
        grad(grad_row ? targets : 0, Vec3{}),
        bound(bound_row ? targets : 0, 0.0) {}

  /// Write the rows into `results` (one per column, outputs already sized),
  /// permuted to the caller's particle order when the targets are the
  /// tree's own particles (`self`).
  void scatter(const Tree& tree, bool self, std::span<EvalResult> results) const;

  std::size_t n;
  std::vector<double> phi;
  std::vector<Vec3> grad;
  std::vector<double> bound;
};

/// P2M work of one node at `degree`: particles times coefficients.
[[nodiscard]] inline std::uint64_t p2m_cost(const TreeNode& node, int degree) noexcept {
  return static_cast<std::uint64_t>(node.count()) * tri_size(degree);
}

/// Per-index work, the weight for_each_node schedules by.
using NodeCost = std::function<std::uint64_t(std::size_t)>;

/// The runs for_each_node hands out at pool width `width`, as their end
/// indices in order (run r covers [ends[r-1], ends[r]), the first from 0).
/// A run holds at most eight consecutive indices and closes once its cost
/// reaches total / (4 * width); an index whose own cost reaches that share
/// starts a run of its own. Without such shares the runs are the old fixed
/// blocks of eight.
std::vector<std::size_t> node_run_ends(std::size_t count, const NodeCost& cost,
                                       unsigned width);

/// Run fn(i) for every index i in [0, count): inline when there is no pool
/// or it is one wide, else over `pool`, whose workers claim node_run_ends()
/// runs in index order. Parents precede their children in node order, so
/// the root and the top levels (whose P2M spans most particles at the
/// highest degrees) run alone or in short runs and are claimed first,
/// instead of sharing one eight-node block while the other workers idle.
void for_each_node(ThreadPool* pool, std::size_t count, const NodeCost& cost,
                   const char* worker_span, const std::function<void(std::size_t)>& fn);

/// The upward pass: P2M of every non-empty node, from its own particles, to
/// its Theorem-3 degree; `charges` are in tree-sorted order.
std::vector<MultipoleExpansion> build_multipoles(const Tree& tree, std::span<const int> degree,
                                                 std::span<const double> charges,
                                                 ThreadPool* pool, const char* worker_span);

/// The audit record of one accepted interaction: the sampling key over
/// (seed, target, per-target acceptance ordinal), and the scale A / (r - a)
/// of the cluster's potential for the rounding floor that separates
/// truncation error from floating-point noise.
obs::audit::Sample audit_sample(std::uint64_t seed, std::size_t target, std::uint64_t ordinal,
                                int node_id, const TreeNode& node, int degree, double approx,
                                double bound, double r) noexcept;

/// Merge the per-thread reservoirs, audit the K winners against exact
/// P2P partial sums, and write the summary into `stats`. Multipole
/// interactions are unsoftened, so the exact comparator is too.
void finish_audit(std::span<const obs::audit::Reservoir> reservoirs, std::size_t k,
                  std::span<const Vec3> points, const Tree& tree,
                  std::span<const double> sorted_charges, EvalStats& stats);

}  // namespace treecode
