#pragma once

/// \file introspect.hpp
/// One-call engine state snapshot: everything an operator asks "what is
/// this session doing right now?" — metrics, the governor's byte ledger,
/// the plan cache's resident plans, recent telemetry records, the tracer's
/// events, and pending warnings — as a single JSON document.
///
/// This is the read-only diagnostic surface of the future evaluation
/// service: the `treecode-inspect` CLI (tools/treecode_inspect.cpp) prints
/// exactly this document, and the SLO watchdog's status block can be
/// attached by the caller (the watchdog is owned by the monitoring loop,
/// not the session). Schema `treecode-inspect/v2` (v2 replaced v1's
/// `flight_recorder` block with the tracer's `events`):
///
///   {"schema": "treecode-inspect/v2", "provenance": {...},
///    "session": {...}, "governor": {...}, "plan_cache":
///    {..., "plans": [...]}, "telemetry": {..., "records": [...]},
///    "events": [{ts_us, tid, name, value}, ...], "metrics": {...},
///    "warnings": [...]}
///
/// Snapshotting is read-only but not atomic: each block reads its
/// subsystem independently, so counts across blocks may disagree by
/// in-flight requests. That is inherent to a diagnostic view of a live
/// process and fine for its purpose.

#include "engine/eval_session.hpp"
#include "obs/json.hpp"

namespace treecode::engine {

/// The governor block: budget/used/remaining bytes, reservation and denial
/// counts, whether governance and a deadline are armed.
[[nodiscard]] obs::Json governor_json(const ResourceGovernor& governor);

/// The plan-cache block: capacities, ledgers, hit/miss/eviction counts,
/// and one entry per resident plan (key, self, targets, entries, bytes).
[[nodiscard]] obs::Json plan_cache_json(const PlanCache& cache);

/// The full inspect document for one session. `session` may be null: the
/// process-wide blocks (metrics, telemetry, events, warnings) are
/// still emitted, with the session/governor/plan_cache blocks omitted.
[[nodiscard]] obs::Json inspect_json(const EvalSession* session);

}  // namespace treecode::engine
