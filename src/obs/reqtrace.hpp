#pragma once

/// \file reqtrace.hpp
/// The one span tracer: request-scoped causal traces with tail-based
/// sampling, and the process timeline of phase spans, in one set of rings
/// behind one enable switch, one epoch and one Chrome exporter.
///
/// Two kinds of span share the rings:
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
///
/// Design constraints:
///  - Span writes go to per-thread obs::SeqRing rings (obs/seq_ring.hpp,
///    the flight recorder's ring): torn reads detected and skipped, no
///    locks on the record path. A ring keeps its thread's newest 512 spans.
///  - IDs come from splitmix64 over one seeded global counter — no wall
///    clock, no std::random_device — so a replayed workload mints the same
///    ids and the retained-trace set is bitwise-deterministic for a fixed
///    seed regardless of worker thread count (only submitting and scheduling
///    threads mint; parallel regions run detached from the request, see
///    parallel_for).
///  - Sampling is **tail-based**: the keep/drop decision happens at request
///    completion, when the verdict (error, served rung, deadline, latency)
///    is known. Errored, degraded (rung > basis replay), deadline-missed,
///    SLO-breaching and over-threshold-slow requests are always kept; the
///    healthy rest is sampled at SamplerConfig::sample_rate by hashing the
///    trace id (schedule-independent).
///  - Timestamps are nanoseconds since enable(), so the Chrome timeline
///    keeps sub-microsecond slices.
///  - Compile time: with -DTREECODE_TRACING=OFF every type and call here
///    collapses to an empty inline stub; spans compile to nothing.
///
/// Exports: `treecode-trace/v1` JSONL of the retained request traces (one
/// trace per line, validated by scripts/validate_trace.py) and Chrome
/// trace-event JSON of every readable span, timeline included, with flow
/// events (loadable in Perfetto at https://ui.perfetto.dev).

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
  kPhase,        ///< phase inside a request, or a timeline span
};

/// Stable name for a SpanKind ("request", "queue", "batch", "phase").
const char* span_kind_name(SpanKind kind);

/// Most flow links one span can carry — the engine's SoA register block
/// caps batch width at 8, so a batch span fans in from at most 8 requests.
inline constexpr std::size_t kMaxFlows = 8;

/// One completed span, as read back from the rings. A timeline span has
/// all four ids zero.
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

/// Stop recording. Recorded spans and retained traces stay readable.
void disable();

/// Whether spans are being recorded. One relaxed load.
bool enabled() noexcept;

/// Disable, then clear rings, retained traces and the id counter. Not safe
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

/// Every readable span in every thread ring, request and timeline alike,
/// in start order. Torn/overwritten slots are skipped.
[[nodiscard]] std::vector<SpanRecord> spans();

/// Snapshot the retained traces (oldest first), each with its readable
/// spans gathered from every thread ring.
[[nodiscard]] std::vector<RetainedTrace> retained();

/// Retained traces as `treecode-trace/v1` JSONL, one trace per line,
/// newest last. `max_traces` 0 = all.
[[nodiscard]] std::string jsonl(std::size_t max_traces = 0);

/// Every readable span as a Chrome trace-event JSON array: one "X" slice
/// per span (request spans carry their trace and span ids in `args`), plus
/// flow events ("s"/"f" pairs) from each member request span into its
/// batch span.
[[nodiscard]] std::string chrome_json();

/// Write jsonl() / chrome_json() to `path`; false on I/O failure (warns).
bool write_jsonl(const std::string& path);
bool write_chrome_json(const std::string& path);

#else  // tracing compiled out: every call is a no-op the optimizer deletes.

inline void enable(const SamplerConfig& = {}) {}
inline void disable() {}
[[nodiscard]] inline bool enabled() noexcept { return false; }
inline void reset() {}
[[nodiscard]] inline std::int64_t now_ns() noexcept { return 0; }
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
inline void record_timeline_span(const char*, std::int64_t, std::int64_t) noexcept {}
inline void finish_request(const TraceContext&, const Verdict&,
                           const TraceContext* = nullptr) {}
inline void note_child_verdict(const TraceContext&, const Verdict&) {}
[[nodiscard]] inline bool is_retained(const TraceContext&) { return false; }
[[nodiscard]] inline std::vector<SpanRecord> spans() { return {}; }
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
    start_ns_ = now_ns();
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
                start_ns_, now_ns());
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
  [[nodiscard]] std::int64_t start_ns() const noexcept { return start_ns_; }

 private:
  TraceContext ctx_{};
  TraceContext prev_{};
  const char* name_;
  std::int64_t start_ns_ = 0;
  bool root_ = false;
  bool installed_ = false;
  bool done_ = false;
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
  [[nodiscard]] std::int64_t start_ns() const noexcept { return 0; }
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
