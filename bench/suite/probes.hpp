#pragma once

/// \file probes.hpp
/// Per-layer measurements of the traced run. The probes run after the
/// timed phase, outside every op window, so they never touch op timings;
/// the registry readouts cover exactly the timed phase.

#include <span>
#include <vector>

#include "engine/eval_plan.hpp"
#include "engine/eval_session.hpp"
#include "harness.hpp"
#include "tree/octree.hpp"

namespace treecode::suite {

/// tree.build_s (median of `reps` builds over `ps`), tree.nodes, tree.height.
void probe_tree(const ParticleSystem& ps, int reps, Tracer& tracer, Report& report);

/// parallel.speedup_4t: Barnes-Hut traversal time over `tree` at one thread
/// divided by the time at kThreads threads (the measured Table 2). Empty
/// `targets` evaluates at the tree's own particles.
void probe_speedup(const Tree& tree, std::span<const Vec3> targets, int reps,
                   Tracer& tracer, Report& report);

/// Engine layers on a warm plan of `session`: `triples` update -> evaluate
/// -> evaluate triples give engine.update_charges_s, engine.refresh_s
/// (evaluate after an update minus evaluate on unchanged charges),
/// engine.replay_s and engine.nodes_refreshed; the plan's fields give the
/// computed bytes one replay streams (engine.replay_bytes, .replay_terms,
/// .replay_gbps); batched replays give engine.batch_per_rhs_s.k1 / .k8.
/// `columns` holds at least eight charge vectors.
void probe_engine(engine::EvalSession& session, const engine::EvalPlan& plan,
                  const std::vector<std::vector<double>>& columns, int triples,
                  Tracer& tracer, Report& report);

/// engine.compile_s: mean seconds per plan compile over the run so far.
void compile_layer(Report& report);

/// engine.plan_entries, .plan_bytes, .basis_bytes: the plans resident in
/// `session`'s cache; plus compile_layer().
void plan_layers(const engine::EvalSession& session, Report& report);

/// Tree, engine and speedup probes on the bem-solve geometry: the
/// propeller's Gauss points as sources, its vertices as targets.
void probe_vertex_plan(const Propeller& prop, std::uint64_t seed, bool smoke,
                       Tracer& tracer, Report& report);

/// host.triad_gbps: STREAM triad a = b + s c over kThreads threads, best of
/// five sweeps. Each array is four times the last-level cache, capped at
/// 256 MB; both sizes go into the report details.
void probe_triad(bool smoke, Tracer& tracer, Report& report);

/// Per-op layer metrics from the registry over the timed phase:
/// multipole.p2m_s, core.eval_s, core.m2p_count, core.p2p_pairs,
/// core.multipole_terms, core.terms_per_s, engine.plan_hit_ratio.
void registry_layers(const RegistryDelta& delta, double ops, Report& report);

/// Give every per-layer metric the workload did not set the value 0 (the
/// workload never enters that layer) and record which ones those are.
void finish_layers(Report& report);

}  // namespace treecode::suite
