#pragma once

/// \file reqtrace.hpp
/// Request-scoped causal tracing with tail-based sampling.
///
/// The phase tracer (obs/trace.hpp) answers "where does wall time go,
/// process-wide"; the telemetry ring (obs/telemetry.hpp) answers "what did
/// request N look like at its exit". Neither links the two: once the
/// service coalesces k tenant requests into one batched replay, a slow or
/// degraded request can only be explained by following *its* path — queue
/// wait, batch placement, replay phases — across threads. This layer mints
/// a TraceContext (128-bit trace id + 64-bit span ids) at every service
/// submission and every direct engine entry, propagates it through the
/// scheduler queue and the coalesced batch (the batch span carries *flow
/// links* back to each member request span, so Perfetto renders the
/// fan-in), and lets the engine's existing ScopedTimer phases join the
/// active trace automatically.
///
/// Design constraints:
///  - Span writes go to per-thread obs::SeqRing rings (obs/seq_ring.hpp,
///    the flight recorder's ring): torn reads detected and skipped, no
///    locks on the record path.
///  - IDs come from splitmix64 over one seeded global counter — no wall
///    clock, no std::random_device — so a replayed workload mints the same
///    ids and the retained-trace set is bitwise-deterministic for a fixed
///    seed regardless of worker thread count (only driver threads mint).
///  - Sampling is **tail-based**: the keep/drop decision happens at request
///    completion, when the verdict (error, served rung, deadline, latency)
///    is known. Errored, degraded (rung > basis replay), deadline-missed,
///    SLO-breaching and over-threshold-slow requests are always kept; the
///    healthy rest is sampled at SamplerConfig::sample_rate by hashing the
///    trace id (schedule-independent).
///  - Compile time: with -DTREECODE_TRACING=OFF every type and call here
///    collapses to an empty inline stub, same as obs/trace.hpp.
///
/// Exports: `treecode-trace/v1` JSONL (one retained trace per line,
/// validated by scripts/validate_trace.py) and Chrome trace-event JSON with
/// flow events (loadable in Perfetto).

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

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
  kPhase,        ///< engine phase / nested scope inside a request
};

/// Stable name for a SpanKind ("request", "queue", "batch", "phase").
const char* span_kind_name(SpanKind kind);

/// Most flow links one span can carry — the engine's SoA register block
/// caps batch width at 8, so a batch span fans in from at most 8 requests.
inline constexpr std::size_t kMaxFlows = 8;

/// One completed span, as read back from the rings.
struct SpanRecord {
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  const char* name = "";  ///< static string from obs/spans.hpp
  SpanKind kind = SpanKind::kPhase;
  std::uint32_t tid = 0;  ///< obs::thread_index() of the recording thread
  std::int64_t start_us = 0;  ///< microseconds since enable()
  std::int64_t end_us = 0;
  std::uint32_t flow_count = 0;
  std::array<std::uint64_t, kMaxFlows> flows{};  ///< linked request span ids
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

/// Completion verdict for one request — the inputs to the tail decision.
struct Verdict {
  bool ok = true;
  std::uint8_t error_code = 0;   ///< util ErrorCode numeric value
  std::int8_t rung = -1;         ///< core ServeRung value; > 0 = degraded
  bool deadline_missed = false;
  bool slo_breach = false;       ///< caller-determined SLO breach
  double wall_seconds = 0.0;
};

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

#if defined(TREECODE_TRACING_ENABLED)

/// Begin recording and sampling under `config`; resets the timestamp epoch.
/// Does not clear rings or retained traces — call reset() first for a
/// clean, replay-deterministic id stream.
void enable(const SamplerConfig& config = {});

/// Stop recording. Retained traces stay readable.
void disable();

/// Whether spans are being recorded. One relaxed load.
bool enabled() noexcept;

/// Clear rings, retained traces, counters and the id counter. Not safe
/// concurrently with recording; intended for test setup.
void reset();

/// Microseconds since enable() (0 before the first enable()).
[[nodiscard]] std::int64_t now_us() noexcept;

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

/// Record one completed span into the calling thread's ring. `name` must
/// be a registry constant from obs/spans.hpp (it is stored by pointer).
/// At most kMaxFlows flow links are kept.
void record_span(const TraceContext& ctx, const char* name, SpanKind kind,
                 std::int64_t start_us, std::int64_t end_us,
                 std::span<const std::uint64_t> flows = {}) noexcept;

/// Tail decision for a completed request trace. When the trace is kept and
/// `force_keep_link` names another (not yet finished) trace — the batch a
/// retained member rode in — that trace is force-kept too, so flow links
/// in an export always resolve.
void finish_request(const TraceContext& ctx, const Verdict& verdict,
                    const TraceContext* force_keep_link = nullptr);

/// A non-root scope's verdict: a keep-worthy child (an errored engine call
/// inside a healthy-looking batch) force-keeps its enclosing trace at the
/// root's later finish_request.
void note_child_verdict(const TraceContext& ctx, const Verdict& verdict);

/// Whether `ctx`'s trace is currently in the retained set.
[[nodiscard]] bool is_retained(const TraceContext& ctx);

/// Snapshot the retained traces (oldest first), each with its readable
/// spans gathered from every thread ring. Torn/overwritten slots skipped.
[[nodiscard]] std::vector<RetainedTrace> retained();

/// Retained traces as `treecode-trace/v1` JSONL, one trace per line,
/// newest last. `max_traces` 0 = all.
[[nodiscard]] std::string jsonl(std::size_t max_traces = 0);

/// Retained traces as a Chrome trace-event JSON array with flow events
/// ("s"/"f" pairs) from each member request span into its batch span.
[[nodiscard]] std::string chrome_json();

/// Write jsonl() / chrome_json() to `path`; false on I/O failure (warns).
bool write_jsonl(const std::string& path);
bool write_chrome_json(const std::string& path);

#else  // tracing compiled out: every call is a no-op the optimizer deletes.

inline void enable(const SamplerConfig& = {}) {}
inline void disable() {}
[[nodiscard]] inline bool enabled() noexcept { return false; }
inline void reset() {}
[[nodiscard]] inline std::int64_t now_us() noexcept { return 0; }
[[nodiscard]] inline TraceContext mint_request() noexcept { return {}; }
[[nodiscard]] inline TraceContext child_of(const TraceContext&) noexcept {
  return {};
}
[[nodiscard]] inline const TraceContext& current() noexcept {
  static constexpr TraceContext kNone{};
  return kNone;
}
inline void set_current(const TraceContext&) noexcept {}
inline void record_span(const TraceContext&, const char*, SpanKind,
                        std::int64_t, std::int64_t,
                        std::span<const std::uint64_t> = {}) noexcept {}
inline void finish_request(const TraceContext&, const Verdict&,
                           const TraceContext* = nullptr) {}
inline void note_child_verdict(const TraceContext&, const Verdict&) {}
[[nodiscard]] inline bool is_retained(const TraceContext&) { return false; }
[[nodiscard]] inline std::vector<RetainedTrace> retained() { return {}; }
[[nodiscard]] inline std::string jsonl(std::size_t = 0) { return {}; }
[[nodiscard]] inline std::string chrome_json() { return "[]"; }
inline bool write_jsonl(const std::string&) { return true; }
inline bool write_chrome_json(const std::string&) { return true; }

#endif

#if defined(TREECODE_TRACING_ENABLED)

/// RAII request scope for an entry point (engine try_* / service submit).
/// With no active context it mints a new root trace; inside one (an engine
/// call under a service batch) it becomes a child span. Either way it
/// installs itself as the thread's current context for its lifetime.
/// finish(verdict) records the span and runs the tail decision (root) or
/// the forced-keep note (child); an unfinished, unreleased scope finishes
/// with a default-healthy verdict on destruction, so no exit path can leak
/// an undecided trace.
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
    start_us_ = now_us();
  }

  ~RequestScope() {
    if (installed_) set_current(prev_);
    if (ctx_.valid() && !done_) finish(Verdict{});
  }

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  /// Record the scope span and decide retention. Idempotent.
  void finish(const Verdict& verdict) {
    if (!ctx_.valid() || done_) return;
    done_ = true;
    record_span(ctx_, name_, root_ ? SpanKind::kRequest : SpanKind::kPhase,
                start_us_, now_us());
    if (root_) {
      finish_request(ctx_, verdict);
    } else {
      note_child_verdict(ctx_, verdict);
    }
  }

  /// Hand span recording + tail decision to the caller (async admission:
  /// the request outlives the submit call). The context stays installed
  /// until destruction; finish() becomes a no-op.
  TraceContext release() noexcept {
    done_ = true;
    return ctx_;
  }

  [[nodiscard]] TraceContext context() const noexcept { return ctx_; }
  [[nodiscard]] bool root() const noexcept { return root_; }
  [[nodiscard]] std::int64_t start_us() const noexcept { return start_us_; }

 private:
  TraceContext ctx_{};
  TraceContext prev_{};
  const char* name_;
  std::int64_t start_us_ = 0;
  bool root_ = false;
  bool installed_ = false;
  bool done_ = false;
};

/// RAII phase span: a child of the thread's current context, recorded on
/// destruction. Inert (one branch) when no context is active — this is the
/// hook ScopedTimer uses, so engine phases join whatever request trace is
/// running without touching evaluator code.
class PhaseSpan {
 public:
  explicit PhaseSpan(const char* name) noexcept : name_(name) {
    if (!enabled()) return;
    const TraceContext& active = current();
    if (!active.valid()) return;
    ctx_ = child_of(active);
    start_us_ = now_us();
  }
  ~PhaseSpan() {
    if (ctx_.valid()) {
      record_span(ctx_, name_, SpanKind::kPhase, start_us_, now_us());
    }
  }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  TraceContext ctx_{};
  const char* name_;
  std::int64_t start_us_ = 0;
};

/// RAII install/restore of the thread's current context — how the service
/// scheduler lends the batch context to the engine for one evaluation.
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

#else

class RequestScope {
 public:
  explicit RequestScope(const char*) noexcept {}
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;
  void finish(const Verdict&) noexcept {}
  TraceContext release() noexcept { return {}; }
  [[nodiscard]] TraceContext context() const noexcept { return {}; }
  [[nodiscard]] bool root() const noexcept { return false; }
  [[nodiscard]] std::int64_t start_us() const noexcept { return 0; }
};

class PhaseSpan {
 public:
  explicit PhaseSpan(const char*) noexcept {}
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;
};

class ContextGuard {
 public:
  explicit ContextGuard(const TraceContext&) noexcept {}
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;
};

#endif

}  // namespace treecode::obs::reqtrace
