#pragma once

/// \file spans.hpp
/// Central registry of every trace-span / phase name in the library.
///
/// Span names identify phases across three consumers at once: the tracer's
/// spans and exports (obs/reqtrace.hpp), the `time.*_ns` phase counters
/// (util/timer.hpp ScopedTimer), and the flight recorder's phase events
/// (obs/recorder.hpp). A typo'd literal at any one call site silently
/// fragments all three — the span records under a name nothing else
/// aggregates. Every call site therefore names its span through one of
/// these constants; scripts/treecode_lint.py (rule `span-registry`)
/// rejects raw string literals at PhaseSpan / ScopedTimer / RequestScope /
/// record_span / record_timeline_span / parallel_for(_blocked) call sites
/// and any constant here whose value duplicates another's.
///
/// Naming convention: `time.<subsystem>_<phase>` for ScopedTimer phases
/// (the `_ns` counter suffix is appended by ScopedTimer), and
/// `<subsystem>.<phase>.worker` for per-worker parallel-region spans.

namespace treecode::obs::span {

// -- tree construction -------------------------------------------------------
inline constexpr const char* kTreeBuild = "time.tree_build";

// -- Barnes-Hut evaluator ----------------------------------------------------
inline constexpr const char* kBhP2m = "time.bh_p2m";
inline constexpr const char* kBhTraverse = "time.bh_traverse";
inline constexpr const char* kBhP2mWorker = "bh.p2m.worker";
inline constexpr const char* kBhTraverseWorker = "bh.traverse.worker";

// -- dipole Barnes-Hut evaluator ---------------------------------------------
inline constexpr const char* kDipoleBhP2m = "time.dipole_bh_p2m";
inline constexpr const char* kDipoleBhTraverse = "time.dipole_bh_traverse";
inline constexpr const char* kDipoleBhP2mWorker = "dipole_bh.p2m.worker";
inline constexpr const char* kDipoleBhTraverseWorker = "dipole_bh.traverse.worker";

// -- FMM evaluator -----------------------------------------------------------
inline constexpr const char* kFmmP2m = "time.fmm_p2m";
inline constexpr const char* kFmmTraverse = "time.fmm_traverse";
inline constexpr const char* kFmmM2l = "time.fmm_m2l";
inline constexpr const char* kFmmDownward = "time.fmm_downward";
inline constexpr const char* kFmmP2p = "time.fmm_p2p";
inline constexpr const char* kFmmP2mWorker = "fmm.p2m.worker";
inline constexpr const char* kFmmM2lWorker = "fmm.m2l.worker";
inline constexpr const char* kFmmDownwardWorker = "fmm.downward.worker";
inline constexpr const char* kFmmP2pWorker = "fmm.p2p.worker";

// -- direct summation --------------------------------------------------------
inline constexpr const char* kDirectEval = "time.direct_eval";
inline constexpr const char* kDirectEvalWorker = "direct.eval.worker";

// -- evaluation engine -------------------------------------------------------
inline constexpr const char* kEngineCompile = "time.engine_compile";
inline constexpr const char* kEngineRefresh = "time.engine_refresh";
inline constexpr const char* kEngineReplay = "time.engine_replay";
inline constexpr const char* kEngineDirect = "time.engine_direct";
inline constexpr const char* kEngineCompileWorker = "engine.compile.worker";
inline constexpr const char* kEngineRefreshWorker = "engine.refresh.worker";
inline constexpr const char* kEngineReplayWorker = "engine.replay.worker";
inline constexpr const char* kEngineDirectWorker = "engine.direct.worker";

// -- request tracing (obs/reqtrace.hpp RequestScope / service spans) ---------
// Root request-scope names, one per engine entry point. Direct calls mint a
// root trace under these; calls inside a service batch become child spans.
inline constexpr const char* kReqEngineCompile = "engine.req.compile";
inline constexpr const char* kReqEngineCompileSelf = "engine.req.compile_self";
inline constexpr const char* kReqEngineUpdateCharges = "engine.req.update_charges";
inline constexpr const char* kReqEngineUpdateChargesSorted =
    "engine.req.update_charges_sorted";
inline constexpr const char* kReqEngineEvaluatePlan = "engine.req.evaluate_plan";
inline constexpr const char* kReqEngineEvaluateAt = "engine.req.evaluate_at";
inline constexpr const char* kReqEngineEvaluateSelf = "engine.req.evaluate_self";
inline constexpr const char* kReqEngineEvaluateBatch = "engine.req.evaluate_batch";
// Service request lifecycle: the root request span (submit -> fulfill), the
// admission slice of submit, the queue-wait span, and the coalesced batch
// span that carries flow links back to its member request spans.
inline constexpr const char* kServiceRequest = "service.request";
inline constexpr const char* kReqServiceSubmit = "service.req.submit";
inline constexpr const char* kServiceQueueWait = "service.queue_wait";
inline constexpr const char* kServiceBatch = "service.batch";
inline constexpr const char* kReqServiceRegister = "service.req.register";
inline constexpr const char* kReqServiceUnregister = "service.req.unregister";

// -- audit engine ------------------------------------------------------------
inline constexpr const char* kAuditFinalize = "time.audit_finalize";

// -- linear algebra ----------------------------------------------------------
inline constexpr const char* kGmresSolve = "time.gmres_solve";
inline constexpr const char* kGmresCycle = "gmres.cycle";

// -- parallel runtime --------------------------------------------------------
/// Fallback for parallel regions whose caller passed no span name.
inline constexpr const char* kParallelFor = "parallel_for";

}  // namespace treecode::obs::span
