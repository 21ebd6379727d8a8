#pragma once

/// \file eval_plan.hpp
/// A compiled traversal plan: the recorded decisions of the alpha-MAC walk
/// (core/interaction_walk.hpp) over a fixed target set.
///
/// The paper's BEM application applies the same treecode operator dozens of
/// times per GMRES solve over fixed geometry — only the charges change. Every
/// decision the walk makes (MAC acceptance, Theorem-3 degree, budget
/// demotion) depends only on geometry, the degree table and the per-cluster
/// |q| aggregates frozen at tree build, so EvalSession records them once and
/// replays them for every later charge vector.
///
/// Layout: one flat entry stream, partitioned per target by `offsets`, in
/// the walk's DFS order — M2P and P2P entries interleave exactly as the walk
/// visited them, so the replay kernel accumulates in the fresh walk's
/// floating-point order. Each entry packs a node id and an interaction kind
/// into one int32: `(node << 1) | is_p2p`. The rest is charge-independent
/// bookkeeping the replay loop would otherwise recompute: per-entry
/// Theorem-1 bounds, per-target costs, the schedule's EvalStats and the
/// level/degree histograms.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "geom/vec3.hpp"
#include "obs/instrument.hpp"

namespace treecode::engine {

/// Frozen per-target interaction lists plus their replay schedule.
/// Immutable once compiled; shared between the session's LRU cache and any
/// callers holding the shared_ptr.
struct EvalPlan {
  /// Pack a node id and interaction kind into one entry.
  static constexpr std::int32_t make_entry(std::int32_t node, bool p2p) noexcept {
    return static_cast<std::int32_t>((static_cast<std::uint32_t>(node) << 1u) |
                                     (p2p ? 1u : 0u));
  }
  static constexpr std::int32_t node_of(std::int32_t entry) noexcept {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(entry) >> 1u);
  }
  static constexpr bool is_p2p(std::int32_t entry) noexcept { return (entry & 1) != 0; }

  /// Evaluation points, in the caller's order (a private copy: the cache
  /// verifies full target equality on every key hit, and replays must not
  /// depend on the caller keeping its span alive).
  std::vector<Vec3> targets;
  /// True when the targets are the tree's own sorted particles; replay then
  /// scatters results back to the caller's original particle order.
  bool self = false;
  /// Cache key: hash of the target set plus every decision-relevant
  /// EvalConfig field (alpha, degrees, mode/law/reference, budget, ...).
  std::uint64_t key = 0;
  /// Id of the EvalSession that compiled the plan; replay in any other
  /// session is rejected (its node tables need not match).
  std::uint64_t session = 0;

  /// Entry stream partition: target i owns entries [offsets[i], offsets[i+1]).
  std::vector<std::uint64_t> offsets;
  /// Interaction entries in exact fresh-traversal DFS order.
  std::vector<std::int32_t> entries;
  /// Theorem-1 bound of each M2P entry (0 for P2P slots), aligned with
  /// `entries`. Empty unless the config tracks bounds or enforces a budget;
  /// the bound depends only on frozen geometry (|q| aggregates are fixed at
  /// tree build), so replaying these reproduces error_bound bitwise.
  std::vector<double> entry_bounds;
  /// Per-target work proxy (multipole terms + P2P pairs), the same cost
  /// measure the fresh traversal reports per block to parallel_for_blocked.
  std::vector<std::uint64_t> target_cost;
  /// Sorted, de-duplicated node ids referenced by at least one M2P entry —
  /// the only nodes whose multipole expansions a replay ever reads, and
  /// therefore the only ones a charge refresh must rebuild. For surface
  /// targets this typically excludes the top tree levels (they never pass
  /// the MAC), which carry the highest degrees and largest particle counts.
  std::vector<std::int32_t> m2p_nodes;
  /// Targets dropped by a sanitizing validation policy (non-finite
  /// coordinates). They keep their (zero) output slot and own no entries.
  std::vector<std::uint32_t> skipped_targets;

  /// Always empty (plans hold no basis); kept for bench/suite/probes.cpp.
  std::vector<std::uint64_t> basis_offset;
  /// Always empty (plans hold no basis); kept for bench/suite/probes.cpp.
  std::vector<double> basis;

  /// Charge-independent schedule statistics: interaction counts, budget
  /// demotions, degree range, max Theorem-2 bound. A replay copies these
  /// into its EvalResult and adds the run-dependent timings/work.
  EvalStats stats;
  obs::LevelCounts m2p_by_level{};
  obs::LevelCounts p2p_by_level{};
  obs::DegreeCounts degree_used{};
  double compile_seconds = 0.0;

  [[nodiscard]] std::size_t num_targets() const noexcept { return targets.size(); }
  [[nodiscard]] std::uint64_t num_entries() const noexcept { return entries.size(); }

  /// Approximate heap footprint of the compiled schedule.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return targets.size() * sizeof(Vec3) + offsets.size() * sizeof(std::uint64_t) +
           entries.size() * sizeof(std::int32_t) + entry_bounds.size() * sizeof(double) +
           target_cost.size() * sizeof(std::uint64_t) +
           m2p_nodes.size() * sizeof(std::int32_t) +
           skipped_targets.size() * sizeof(std::uint32_t);
  }
};

}  // namespace treecode::engine
