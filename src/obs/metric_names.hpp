#pragma once

/// \file metric_names.hpp
/// Central registry of every metrics-registry series name in the library.
///
/// Metric names identify the same series across four consumers at once: the
/// in-process registry (obs/metrics.hpp), the bench-report JSON snapshot
/// (obs/report.hpp), the OpenMetrics exposition (obs/openmetrics.hpp), and
/// the SLO watchdog's rules (obs/slo.hpp). A typo'd literal at any one call
/// site silently forks the series — increments land under a name nothing
/// scrapes, and a watchdog rule over the intended name reads zero forever.
/// Every call site therefore names its metric through one of these
/// constants; the treecode-analyze rule `metric-name-literal` rejects
/// raw string literals at counter()/gauge()/histogram()/series()/
/// flush_counts() call sites in src/ and any constant here whose value
/// duplicates another's.
///
/// Naming convention: `<subsystem>.<measurement>`, dot-separated; the
/// OpenMetrics exporter rewrites dots to underscores on export. Per-level
/// and per-degree fan-out names (`audit.tightness.L%d` etc.) are built with
/// snprintf at the one call site that owns them and are exempt by
/// construction (a non-literal first argument is never flagged).

namespace treecode::obs::metric {

// -- tree construction -------------------------------------------------------
inline constexpr const char* kTreeHeight = "tree.height";
inline constexpr const char* kTreeNumNodes = "tree.num_nodes";
inline constexpr const char* kTreeNumLeaves = "tree.num_leaves";
inline constexpr const char* kTreeNumParticles = "tree.num_particles";

// -- Barnes-Hut evaluator ----------------------------------------------------
inline constexpr const char* kBhMultipoleTerms = "bh.multipole_terms";
inline constexpr const char* kBhM2pCount = "bh.m2p_count";
inline constexpr const char* kBhP2pPairs = "bh.p2p_pairs";
inline constexpr const char* kBhBudgetRefinements = "bh.budget_refinements";
inline constexpr const char* kBhBudgetRefinementsLeaf = "bh.budget_refinements_leaf";
inline constexpr const char* kBhMaxInteractionBound = "bh.max_interaction_bound";
inline constexpr const char* kBhM2pPerLevel = "bh.m2p_per_level";
inline constexpr const char* kBhP2pPerLevel = "bh.p2p_per_level";
inline constexpr const char* kBhDegreeUsed = "bh.degree_used";

// -- dipole Barnes-Hut evaluator ---------------------------------------------
inline constexpr const char* kDipoleBhMultipoleTerms = "dipole_bh.multipole_terms";
inline constexpr const char* kDipoleBhP2pPairs = "dipole_bh.p2p_pairs";

// -- FMM evaluator -----------------------------------------------------------
inline constexpr const char* kFmmMultipoleTerms = "fmm.multipole_terms";
inline constexpr const char* kFmmM2lCount = "fmm.m2l_count";
inline constexpr const char* kFmmP2pPairs = "fmm.p2p_pairs";
inline constexpr const char* kFmmMaxInteractionBound = "fmm.max_interaction_bound";
inline constexpr const char* kFmmM2lPerLevel = "fmm.m2l_per_level";
inline constexpr const char* kFmmP2pPerLevel = "fmm.p2p_per_level";
inline constexpr const char* kFmmDegreeUsed = "fmm.degree_used";

// -- direct summation --------------------------------------------------------
inline constexpr const char* kDirectP2pPairs = "direct.p2p_pairs";

// -- evaluation engine -------------------------------------------------------
/// Every public try_* entry-point call, counted unconditionally (before the
/// tracing gate) — the SLO ratio denominator.
inline constexpr const char* kEngineRequests = "engine.requests";
inline constexpr const char* kEngineErrors = "engine.errors";
inline constexpr const char* kEnginePlanCacheHits = "engine.plan_cache_hits";
inline constexpr const char* kEnginePlanCacheMisses = "engine.plan_cache_misses";
inline constexpr const char* kEnginePlanDenied = "engine.plan_denied";
inline constexpr const char* kEnginePlanCompiles = "engine.plan_compiles";
inline constexpr const char* kEnginePlanEntries = "engine.plan_entries";
inline constexpr const char* kEnginePlanBytes = "engine.plan_bytes";
inline constexpr const char* kEngineRefreshDenied = "engine.refresh_denied";
inline constexpr const char* kEngineNodesRefreshed = "engine.nodes_refreshed";
inline constexpr const char* kEngineDeadlineExpirations = "engine.deadline_expirations";
inline constexpr const char* kEngineReplays = "engine.replays";
inline constexpr const char* kEngineMultipoleTerms = "engine.multipole_terms";
inline constexpr const char* kEngineM2pCount = "engine.m2p_count";
inline constexpr const char* kEngineP2pPairs = "engine.p2p_pairs";
inline constexpr const char* kEngineM2pPerLevel = "engine.m2p_per_level";
inline constexpr const char* kEngineP2pPerLevel = "engine.p2p_per_level";
inline constexpr const char* kEngineDegreeUsed = "engine.degree_used";
inline constexpr const char* kEngineDegradedServes = "engine.degraded_serves";
inline constexpr const char* kEngineServeReplay = "engine.serve.replay";
inline constexpr const char* kEngineServeTraversal = "engine.serve.traversal";
inline constexpr const char* kEngineServeDirect = "engine.serve.direct";
/// Multi-RHS batched replay (EvalSession::try_evaluate_batch).
inline constexpr const char* kEngineBatchReplays = "engine.batch_replays";
inline constexpr const char* kEngineBatchColumns = "engine.batch_columns";
inline constexpr const char* kEngineBatchFallbacks = "engine.batch_fallbacks";
inline constexpr const char* kEngineBatchDenied = "engine.batch_denied";

// -- evaluation service ------------------------------------------------------
/// Every public EvalService try_* entry-point call, counted unconditionally
/// (before the tracing gate) — mirrors engine.requests.
inline constexpr const char* kServiceRequests = "service.requests";
inline constexpr const char* kServiceErrors = "service.errors";
inline constexpr const char* kServiceTenants = "service.tenants";
inline constexpr const char* kServiceSubmitted = "service.submitted";
inline constexpr const char* kServiceServed = "service.served";
inline constexpr const char* kServiceRejected = "service.rejected";
inline constexpr const char* kServiceCancelled = "service.cancelled";
inline constexpr const char* kServiceBatches = "service.batches";
inline constexpr const char* kServiceBatchColumns = "service.batch_columns";
inline constexpr const char* kServiceBatchWidth = "service.batch_width";

// -- per-tenant service latency (fan-out bases; see service_tenant_metric) ---
/// Per-tenant fan-outs insert the tenant after the "service." prefix:
/// `service.<tenant>.request_seconds` / `.deadline_slack_seconds` — submit
/// -to-fulfill latency and deadline slack histograms whose p50/p99 the
/// OpenMetrics exposition and `treecode-inspect --service` surface.
inline constexpr const char* kServiceRequestSeconds = "service.request_seconds";
inline constexpr const char* kServiceDeadlineSlackSeconds =
    "service.deadline_slack_seconds";
inline constexpr const char* kServiceQueueWaitSeconds = "service.queue_wait_seconds";

// -- audit engine ------------------------------------------------------------
inline constexpr const char* kAuditTightness = "audit.tightness";
inline constexpr const char* kAuditSamples = "audit.samples";
inline constexpr const char* kAuditBoundViolations = "audit.bound_violations";
inline constexpr const char* kAuditMaxTightness = "audit.max_tightness";

// -- resource governor -------------------------------------------------------
inline constexpr const char* kGovernorDenials = "governor.denials";
inline constexpr const char* kGovernorUsedBytes = "governor.used_bytes";

// -- fault injection ---------------------------------------------------------
inline constexpr const char* kFaultInjected = "fault.injected";

// -- linear algebra ----------------------------------------------------------
inline constexpr const char* kGmresResidual = "gmres.residual";
inline constexpr const char* kGmresIterations = "gmres.iterations";

// -- parallel runtime --------------------------------------------------------
inline constexpr const char* kPoolThreads = "pool.threads";
inline constexpr const char* kPoolDispatches = "pool.dispatches";

// -- request log (obs/reqtrace.hpp log_request) ------------------------------
inline constexpr const char* kTelemetryRequests = "telemetry.requests";
inline constexpr const char* kTelemetryErrors = "telemetry.errors";
inline constexpr const char* kTelemetryRequestSeconds = "telemetry.request_seconds";
inline constexpr const char* kTelemetrySinkErrors = "telemetry.sink_errors";

// -- tracing (obs/reqtrace.hpp) ----------------------------------------------
/// Spans recorded, request and timeline alike.
inline constexpr const char* kTraceRecordedSpans = "reqtrace.spans";
inline constexpr const char* kTraceRequests = "reqtrace.requests";
inline constexpr const char* kTraceRetained = "reqtrace.retained";
inline constexpr const char* kTraceSampledOut = "reqtrace.sampled_out";
inline constexpr const char* kTraceForcedKeeps = "reqtrace.forced_keeps";

// -- observability HTTP endpoint (obs/httpd.hpp) -----------------------------
inline constexpr const char* kHttpRequests = "httpd.requests";
inline constexpr const char* kHttpErrors = "httpd.errors";

// -- SLO watchdog ------------------------------------------------------------
inline constexpr const char* kSloChecks = "slo.checks";
inline constexpr const char* kSloBreaches = "slo.breaches";

}  // namespace treecode::obs::metric
