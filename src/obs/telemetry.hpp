#pragma once

/// \file telemetry.hpp
/// Request-level telemetry: one structured RequestRecord per engine entry
/// point exit, kept in a bounded lock-free ring and optionally streamed to a
/// rotating JSONL sink.
///
/// The metrics registry aggregates (how many replays, how many denials);
/// the flight recorder captures fine-grained events around a failure. What
/// neither answers is the per-request question a serving operator asks:
/// *this* evaluation — which plan did it hit, which degradation rung served
/// it, how long did it take, how much deadline slack was left, how tight
/// was its audited error bound? The telemetry layer records exactly that
/// tuple at every EvalSession try_* exit, success or failure.
///
/// Design constraints mirror the flight recorder (obs/recorder.hpp):
///  - emit() must be safe from any thread: the ring is an obs::SeqRing
///    (obs/seq_ring.hpp), so torn reads are detected and skipped and the
///    ring path never allocates. The JSONL sink is mutex-serialized
///    (requests finish at call granularity, never inside kernel loops).
///  - Disabled (the default) costs one relaxed load and a branch.
///  - This layer lives in obs and cannot see engine/core types: the serving
///    rung travels as a small integer (matching core ServeRung values) and
///    the outcome as the ErrorCode's numeric value plus its static name.
///
/// Every record also feeds three registry series — telemetry.requests,
/// telemetry.errors, and the telemetry.request_seconds histogram — so the
/// OpenMetrics exposition and SLO watchdog (obs/slo.hpp) see request rates
/// and latency quantiles without reading the ring.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace treecode::obs::telemetry {

/// Which EvalSession entry point produced a record. Values are stable:
/// they appear in JSONL sinks read by external tooling.
enum class Api : std::uint8_t {
  kCompile = 0,
  kCompileSelf,
  kUpdateCharges,
  kUpdateChargesSorted,
  kEvaluatePlan,
  kEvaluateAt,
  kEvaluateSelf,
  kEvaluateBatch,      ///< multi-RHS batched replay (EvalSession::try_evaluate_batch)
  kServiceRegister,    ///< service tenant registration (EvalService)
  kServiceSubmit,      ///< service request admission (EvalService)
  kServiceUnregister,  ///< service tenant teardown (EvalService)
  kServiceServe,       ///< one coalesced request at fulfillment (EvalService)
};

/// Human-readable name for an Api ("compile", "evaluate_at", ...).
const char* api_name(Api api);

/// One request, as recorded at an entry point's exit. Sentinel conventions:
/// plan_key 0 = no plan involved, rung -1 = not an evaluation (or failed
/// before rung choice), deadline_slack_seconds NaN = no deadline armed,
/// audit_max_tightness 0 = no audit ran.
struct RequestRecord {
  std::uint64_t seq = 0;        ///< assigned by emit(); total request order
  std::int64_t ts_us = 0;       ///< assigned by emit(); microseconds since enable()
  Api api = Api::kEvaluateAt;
  std::uint64_t plan_key = 0;   ///< PlanCache key (FNV-1a) or 0
  std::int8_t rung = -1;        ///< core ServeRung value (0-3) or -1
  std::uint8_t outcome = 0;     ///< util ErrorCode numeric value (0 = ok)
  const char* outcome_name = "ok";  ///< static error_code_name() string
  bool ok = true;               ///< whether the Expected held a value
  double wall_seconds = 0.0;    ///< entry-to-exit wall time
  std::uint64_t targets = 0;    ///< targets served (0 for non-evaluations)
  std::uint64_t plan_bytes = 0;   ///< resident compiled-plan bytes at exit
  std::uint64_t basis_bytes = 0;  ///< resident evaluation-basis bytes at exit
  double deadline_slack_seconds = 0.0;  ///< deadline - wall; NaN = no deadline
  double audit_max_tightness = 0.0;     ///< max |error|/bound this request
  std::uint32_t threads = 0;    ///< session pool width
  std::uint32_t batch_width = 0;  ///< multi-RHS columns (0 = not a batch)
  // v2 fields (treecode-request-record/v2). A zero trace id means request
  // tracing was off; JSON renders it as 32 '0' hex chars.
  std::uint64_t trace_hi = 0;   ///< obs/reqtrace.hpp trace id, high half
  std::uint64_t trace_lo = 0;   ///< low half
  double queue_wait_seconds = 0.0;  ///< admission -> batch pickup (service)
  std::uint64_t batch_seq = 0;  ///< service scheduler round (0 = no batch)
};

/// Number of ring slots. Power of two so the slot index is a mask.
inline constexpr std::size_t kRingCapacity = 1024;

/// Enable recording. Idempotent; resets the timestamp epoch.
void enable();

/// Disable recording. Records already in the ring remain readable; the
/// sink (if any) stays configured.
void disable();

/// Whether emit() currently stores records. One relaxed load.
bool enabled();

/// Discard all records, close and forget the sink, zero the counters.
/// Not safe concurrently with emit(); intended for test setup.
void reset();

/// Stream every record as one JSON line appended to `path`. When
/// `rotate_bytes` > 0 the file is rotated (path -> path.1 -> ... ->
/// path.<max_files-1>, oldest dropped) once it would exceed that size.
/// Write failures increment telemetry.sink_errors and drop the line; the
/// ring is unaffected.
void set_sink(std::string path, std::uint64_t rotate_bytes = 0,
              unsigned max_files = 3);

/// Flush and detach the sink. Records keep flowing to the ring.
void close_sink();

/// Record one request: stamps seq/ts_us, writes the ring slot, appends to
/// the sink, and feeds the telemetry.* registry metrics. No-op (one
/// relaxed load + branch) while disabled.
void emit(RequestRecord record);

/// Snapshot the ring: readable records, oldest first. Torn slots skipped.
std::vector<RequestRecord> records();

/// Total records ever emitted (including ones the ring has overwritten).
std::uint64_t emitted_count();

/// One record as a `treecode-request-record/v2` JSON object — the same
/// shape the JSONL sink writes per line (validated by
/// scripts/validate_telemetry.py against scripts/telemetry_record_schema.json).
Json to_json(const RequestRecord& record);

}  // namespace treecode::obs::telemetry
