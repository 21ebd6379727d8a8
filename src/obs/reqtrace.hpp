#pragma once

/// \file reqtrace.hpp
/// The one tracer and the one request log: request-scoped causal traces
/// with tail-based sampling, the process timeline of phase spans, and one
/// RequestRecord per finished request, behind one enable switch and one
/// epoch.
///
/// Three kinds of record share the rings:
///  - *Request spans* belong to a trace. A TraceContext (128-bit trace id +
///    64-bit span ids) is minted at every service submission and every
///    direct engine entry, propagated through the scheduler queue and the
///    coalesced batch (the batch span carries *flow links* back to each
///    member request span, so Perfetto renders the fan-in), and the
///    engine's ScopedTimer phases join the active trace as child spans.
///  - *Timeline spans* have no trace: a PhaseSpan opened with no request
///    context installed (tree builds, solver cycles, every parallel
///    region's per-worker span). They carry zero ids and never draw from
///    the id stream.
///  - *Events* are zero-duration timeline records with a static name and a
///    value (invariant outcomes, non-finite potentials, evictions, SLO
///    breaches, ...). trigger() also keeps the calling thread's trace and
///    dumps the Chrome export, so a failure that unwinds leaves both.
///
/// Every engine and service exit fills one RequestRecord: which entry
/// point, plan, serving rung, outcome, wall time, deadline slack and
/// audited Theorem-1 tightness. RequestScope::finish (and the service's
/// fulfillment path) logs it under the request's trace id — into a
/// 1024-slot ring, the optional JSONL sink and the telemetry.* registry
/// series the SLO watchdog and OpenMetrics read — then records the span
/// and runs the tail decision on the same record.
///
/// Design constraints:
///  - Span, event and record writes go to obs::SeqRing rings
///    (obs/seq_ring.hpp): torn reads detected and skipped, no locks on the
///    record path. A span ring keeps its thread's newest 512 spans and
///    events. The JSONL sink is mutex-serialized (requests finish at call
///    granularity, never inside kernel loops).
///  - Disabled (the default) costs one relaxed load and a branch.
///  - IDs come from splitmix64 over one seeded global counter — no wall
///    clock, no std::random_device — so a replayed workload mints the same
///    ids and the retained-trace set is bitwise-deterministic for a fixed
///    seed regardless of worker thread count (only submitting and scheduling
///    threads mint; parallel regions run detached from the request, see
///    parallel_for).
///  - Sampling is **tail-based**: the keep/drop decision happens at request
///    completion, when the record (error, served rung, deadline, latency)
///    is known. Errored, degraded (rung >= kTraversalRung, the fresh
///    traversal or direct sum), deadline-missed, SLO-breaching and
///    over-threshold-slow requests are always kept; the healthy rest is
///    sampled at SamplerConfig::sample_rate by hashing the trace id
///    (schedule-independent).
///  - Timestamps are nanoseconds since enable(), so the Chrome timeline
///    keeps sub-microsecond slices; records carry microseconds on the
///    same epoch.
///  - This layer cannot see engine/core types: the serving rung travels as
///    a small integer (core ServeRung values) and the outcome as the
///    ErrorCode's numeric value plus its static name.
///
/// Exports: `treecode-trace/v1` JSONL of the retained request traces (one
/// trace per line, validated by scripts/validate_trace.py), Chrome
/// trace-event JSON of every readable span, timeline and events included,
/// with flow events (loadable in Perfetto at https://ui.perfetto.dev), and
/// `treecode-request-record/v3` JSONL of the request log (validated by
/// scripts/validate_telemetry.py).

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace treecode::obs {
class Json;
}  // namespace treecode::obs

namespace treecode::obs::reqtrace {

/// Position of one span in its trace: which trace, this span's id, and the
/// parent span (0 = root). Copied freely; carried by queued requests.
struct TraceContext {
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  /// A zero trace id means "no trace" (tracing disabled at mint time).
  [[nodiscard]] bool valid() const noexcept { return (trace_hi | trace_lo) != 0; }
};

/// What a span represents. Values are stable: they appear in JSONL exports.
enum class SpanKind : std::uint8_t {
  kRequest = 0,  ///< root span of a request trace (or batch trace)
  kQueue,        ///< time spent queued between admission and batch pickup
  kBatch,        ///< one coalesced batched replay; carries flow links
  kPhase,        ///< phase inside a request, or a timeline span
  kEvent,        ///< zero-duration timeline record carrying a value
};

/// Stable name for a SpanKind ("request", "queue", "batch", "phase",
/// "event").
const char* span_kind_name(SpanKind kind);

/// Most flow links one span can carry — the engine's SoA register block
/// caps batch width at 8, so a batch span fans in from at most 8 requests.
inline constexpr std::size_t kMaxFlows = 8;

/// Span slots per thread ring: each thread keeps its newest 512 spans and
/// events.
inline constexpr std::size_t kSpanRingCapacity = 512;

/// One completed span or event, as read back from the rings. A timeline
/// span or event has all four ids zero.
struct SpanRecord {
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  const char* name = "";  ///< static string from obs/spans.hpp
  SpanKind kind = SpanKind::kPhase;
  std::uint32_t tid = 0;  ///< obs::thread_index() of the recording thread
  std::int64_t start_ns = 0;  ///< nanoseconds since enable()
  std::int64_t end_ns = 0;
  std::uint32_t flow_count = 0;
  std::array<std::uint64_t, kMaxFlows> flows{};  ///< linked request span ids
  double value = 0.0;  ///< kEvent payload

  [[nodiscard]] bool timeline() const noexcept { return (trace_hi | trace_lo) == 0; }
};

/// Tail-sampler policy. All fields participate in the deterministic keep
/// decision; keep rates other than 0/1 hash the trace id, never a clock.
struct SamplerConfig {
  std::uint64_t seed = 1;     ///< id-stream + sampling-hash seed
  double sample_rate = 0.0;   ///< healthy-trace keep probability in [0, 1]
  /// Keep any request slower than this many seconds (the "slowest tail"
  /// rule; pair it with the observed p99). Negative = off, and off is the
  /// default because a wall-time threshold is schedule-dependent.
  double keep_slower_than_seconds = -1.0;
  std::size_t retain_capacity = 256;  ///< retained traces kept, FIFO evicted
};

/// core ServeRung::kTraversal: a request served at this rung or the next
/// one down the ladder (direct summation) was degraded. Plan replay is
/// healthy.
inline constexpr std::int8_t kTraversalRung = 1;

/// One finished request: the row the request log keeps and the input to
/// the tail decision. Sentinels: plan_key 0 = no plan involved, rung -1 =
/// not an evaluation (or failed before rung choice),
/// deadline_slack_seconds NaN = no deadline armed, audit_max_tightness 0 =
/// no audit ran, zero trace id = logged outside any trace.
struct RequestRecord {
  std::uint64_t seq = 0;        ///< stamped by log_request(); total order
  std::int64_t ts_us = 0;       ///< stamped by log_request(); us since enable()
  /// Stable entry-point name ("compile", "evaluate_at", "service_serve",
  /// ...) — a static string; external tooling reads it from the JSONL.
  const char* api = "";
  std::uint64_t plan_key = 0;   ///< PlanCache key (FNV-1a) or 0
  bool ok = true;               ///< whether the Expected held a value
  std::uint8_t outcome = 0;     ///< util ErrorCode numeric value (0 = ok)
  const char* outcome_name = "ok";  ///< static error_code_name() string
  std::int8_t rung = -1;        ///< core ServeRung (0-2) or -1; >= 1 degraded
  bool deadline_missed = false;
  bool slo_breach = false;      ///< caller-determined SLO breach
  double wall_seconds = 0.0;    ///< entry-to-exit wall time
  std::uint64_t targets = 0;    ///< targets served (0 for non-evaluations)
  std::uint64_t plan_bytes = 0;  ///< resident compiled-plan bytes at exit
  double deadline_slack_seconds = 0.0;  ///< deadline - wall; NaN = none
  double audit_max_tightness = 0.0;     ///< max |error|/bound this request
  std::uint32_t threads = 0;    ///< session pool width
  std::uint32_t batch_width = 0;  ///< multi-RHS columns (0 = not a batch)
  std::uint64_t trace_hi = 0;   ///< the request's trace id, high half
  std::uint64_t trace_lo = 0;   ///< low half
  double queue_wait_seconds = 0.0;  ///< admission -> batch pickup (service)
  std::uint64_t batch_seq = 0;  ///< service scheduler round (0 = no batch)
};

/// Request-log ring slots. Power of two so the slot index is a mask.
inline constexpr std::size_t kRequestRingCapacity = 1024;

/// One retained trace: identity, why the sampler kept it, and its spans in
/// start order.
struct RetainedTrace {
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  const char* reason = "";  ///< "error", "degraded", "deadline", "slo",
                            ///< "slow", "forced", "sampled"
  std::vector<SpanRecord> spans;
};

/// 32-lowercase-hex rendering of a 128-bit trace id (zero id = all '0').
std::string trace_id_hex(std::uint64_t hi, std::uint64_t lo);

/// 16-lowercase-hex rendering of a 64-bit span id.
std::string span_id_hex(std::uint64_t id);

/// Begin recording and sampling under `config`; resets the timestamp epoch.
/// Does not clear rings or retained traces — call reset() first for a
/// clean, replay-deterministic id stream.
void enable(const SamplerConfig& config = {});

/// Stop recording. Spans, retained traces and records stay readable; the
/// sink stays configured.
void disable();

/// Whether spans and records are being recorded. One relaxed load.
bool enabled() noexcept;

/// Disable, then clear rings, retained traces, the id counter and the
/// request log, close the sink and forget the dump path. Not safe
/// concurrently with recording; intended for run and test setup.
void reset();

/// Nanoseconds since enable() (0 before the first enable()).
[[nodiscard]] std::int64_t now_ns() noexcept;

/// Mint a new root context: fresh 128-bit trace id, fresh root span id,
/// parent 0. Returns an invalid context while disabled. Call only from
/// driver threads (never inside parallel workers) so the id stream — and
/// with it the retained set — is independent of worker schedule.
[[nodiscard]] TraceContext mint_request() noexcept;

/// Mint a child context inside `parent`'s trace (fresh span id, parent =
/// parent.span_id). Invalid in, invalid out.
[[nodiscard]] TraceContext child_of(const TraceContext& parent) noexcept;

/// The calling thread's active context (invalid when none is installed).
[[nodiscard]] const TraceContext& current() noexcept;

/// Install `ctx` as the calling thread's active context. Prefer
/// ContextGuard / RequestScope, which restore the previous context.
void set_current(const TraceContext& ctx) noexcept;

/// Record one completed request span into the calling thread's ring.
/// `name` must be a registry constant from obs/spans.hpp (it is stored by
/// pointer). At most kMaxFlows flow links are kept. No-op for an invalid
/// context.
void record_span(const TraceContext& ctx, const char* name, SpanKind kind,
                 std::int64_t start_ns, std::int64_t end_ns,
                 std::span<const std::uint64_t> flows = {}) noexcept;

/// Record one completed timeline span (no trace) into the calling thread's
/// ring. PhaseSpan's path when no request context is installed.
void record_timeline_span(const char* name, std::int64_t start_ns,
                          std::int64_t end_ns) noexcept;

/// Record one event — a zero-duration timeline record named `name`
/// carrying `value` — into the calling thread's ring. `name` is stored by
/// pointer: an obs/spans.hpp constant or another static string.
void record_event(const char* name, double value = 0.0) noexcept;

/// Where trigger() writes chrome_json() ("" = nowhere, the default).
void set_dump_path(std::string path);

/// Something went wrong: record event `name`, force-keep the calling
/// thread's current trace (its tail reason reads "forced" unless its
/// record demands another), and write chrome_json() to the dump path now,
/// so callers about to throw leave the artifact before the unwind.
void trigger(const char* name, double value = 0.0);

/// Tail decision for a completed request trace. When the trace is kept and
/// `force_keep_link` names another (not yet finished) trace — the batch a
/// retained member rode in — that trace is force-kept too, so flow links
/// in an export always resolve.
void finish_request(const TraceContext& ctx, const RequestRecord& record,
                    const TraceContext* force_keep_link = nullptr);

/// A non-root scope's record: a keep-worthy child (an errored engine call
/// inside a healthy-looking batch) force-keeps its enclosing trace at the
/// root's later finish_request.
void note_child_verdict(const TraceContext& ctx, const RequestRecord& record);

/// Log one finished request: stamp seq and ts_us, push the record into the
/// request ring and append it to the sink. A `counted` record also bumps
/// telemetry.requests, telemetry.errors and the telemetry.request_seconds
/// histogram, so those count each request once: its root scope's record,
/// or for an admitted service request the "service_serve" record, not the
/// admission's. Records of work done on a request's behalf (a nested
/// scope: a batch's evaluate_batch, a registration's compile_self) are
/// logged uncounted. No-op while disabled.
void log_request(RequestRecord record, bool counted = true);

/// The request ring, oldest first. Torn slots skipped.
[[nodiscard]] std::vector<RequestRecord> records();

/// Records ever logged, including ones the ring has overwritten.
[[nodiscard]] std::uint64_t logged_count();

/// Append every logged record as one JSON line to `path` (truncated
/// first). Write failures count telemetry.sink_errors and drop the line;
/// the ring is unaffected.
void set_sink(const std::string& path);

/// Flush and detach the sink. Records keep flowing to the ring.
void close_sink();

/// One record as a `treecode-request-record/v3` JSON object — the shape
/// of a sink line (scripts/telemetry_record_schema.json).
[[nodiscard]] Json record_json(const RequestRecord& record);

/// Whether `ctx`'s trace is currently in the retained set.
[[nodiscard]] bool is_retained(const TraceContext& ctx);

/// Every readable span and event in every thread ring, request and
/// timeline alike, in start order (ring order among ties). Torn/overwritten
/// slots are skipped.
[[nodiscard]] std::vector<SpanRecord> spans();

/// Snapshot the retained traces (oldest first), each with its readable
/// spans gathered from every thread ring.
[[nodiscard]] std::vector<RetainedTrace> retained();

/// Retained traces as `treecode-trace/v1` JSONL, one trace per line,
/// newest last. `max_traces` 0 = all.
[[nodiscard]] std::string jsonl(std::size_t max_traces = 0);

/// Every readable span as a Chrome trace-event JSON array: one "X" slice
/// per span (request spans carry their trace and span ids in `args`), one
/// "i" instant per event (its value in `args`), plus flow events ("s"/"f"
/// pairs) from each member request span into its batch span. Readable
/// while disabled.
[[nodiscard]] std::string chrome_json();

/// Write jsonl() / chrome_json() to `path`; false on I/O failure (warns).
bool write_jsonl(const std::string& path);
bool write_chrome_json(const std::string& path);

/// RAII request scope for an entry point (engine try_* / service submit).
/// With no active context it mints a new root trace; inside one (an engine
/// call under a service batch) it becomes a child span. Either way it
/// installs itself as the thread's current context for its lifetime.
/// finish(record) is the request's one exit: it logs the record, records
/// the span and runs the tail decision (root) or the forced-keep note
/// (child). An unfinished, unreleased scope closes its span with a
/// default-healthy record on destruction, so no exit path can leak an
/// undecided trace.
class RequestScope {
 public:
  explicit RequestScope(const char* name) noexcept : name_(name) {
    if (!enabled()) return;
    const TraceContext& active = current();
    if (active.valid()) {
      ctx_ = child_of(active);
      root_ = false;
    } else {
      ctx_ = mint_request();
      root_ = true;
    }
    prev_ = active;
    installed_ = true;
    set_current(ctx_);
    start_ns_ = now_ns();
  }

  ~RequestScope() {
    if (installed_) set_current(prev_);
    if (ctx_.valid() && !closed_) close(RequestRecord{});
  }

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  /// Log `record` under this scope's trace id, stamped inside its span,
  /// then record the span and decide retention. Once only; after
  /// release() it logs the record alone. No-op while tracing was off at
  /// construction.
  void finish(RequestRecord record);

  /// Hand span recording + tail decision to the caller (async admission:
  /// the request outlives the submit call). The context stays installed
  /// until destruction.
  TraceContext release() noexcept {
    closed_ = true;
    return ctx_;
  }

  [[nodiscard]] TraceContext context() const noexcept { return ctx_; }
  [[nodiscard]] bool root() const noexcept { return root_; }
  [[nodiscard]] std::int64_t start_ns() const noexcept { return start_ns_; }

 private:
  void close(const RequestRecord& record);

  TraceContext ctx_{};
  TraceContext prev_{};
  const char* name_;
  std::int64_t start_ns_ = 0;
  bool root_ = false;
  bool installed_ = false;
  bool closed_ = false;  ///< span recorded and retention decided (or handed off)
  bool logged_ = false;
};

/// RAII span, recorded on destruction: a child of the thread's current
/// context when one is installed (so engine phases join whatever request
/// trace is running without touching evaluator code), a timeline span
/// otherwise. One relaxed load while tracing is off. Pass a registry
/// constant from obs/spans.hpp (the name is stored by pointer).
class PhaseSpan {
 public:
  explicit PhaseSpan(const char* name) noexcept : name_(name) {
    if (!enabled()) return;
    ctx_ = child_of(current());
    start_ns_ = now_ns();
    armed_ = true;
  }
  ~PhaseSpan() {
    if (!armed_) return;
    if (ctx_.valid()) {
      record_span(ctx_, name_, SpanKind::kPhase, start_ns_, now_ns());
    } else {
      record_timeline_span(name_, start_ns_, now_ns());
    }
  }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  TraceContext ctx_{};
  const char* name_;
  std::int64_t start_ns_ = 0;
  bool armed_ = false;
};

/// RAII install/restore of the thread's current context — how the service
/// scheduler lends the batch context to the engine for one evaluation, and
/// how parallel_for detaches its region from the caller's request.
class ContextGuard {
 public:
  explicit ContextGuard(const TraceContext& ctx) noexcept : prev_(current()) {
    set_current(ctx);
  }
  ~ContextGuard() { set_current(prev_); }
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  TraceContext prev_;
};

}  // namespace treecode::obs::reqtrace
