#include "obs/reqtrace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/json.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/seq_ring.hpp"

namespace treecode::obs::reqtrace {

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest: return "request";
    case SpanKind::kQueue: return "queue";
    case SpanKind::kBatch: return "batch";
    case SpanKind::kPhase: return "phase";
  }
  return "unknown";
}

std::string trace_id_hex(std::uint64_t hi, std::uint64_t lo) {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

std::string span_id_hex(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(id));
  return buf;
}

#if defined(TREECODE_TRACING_ENABLED)

namespace {

/// Thread rings of 512 span slots; obs::thread_index() wraps past 64
/// (slots are still claimed atomically, two threads just share a ring).
using ThreadRing = SeqRing<SpanRecord, 512>;
constexpr std::size_t kMaxThreadRings = 64;

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

/// splitmix64 output scrambler (Steele/Lea/Flood). The id stream is
/// id(c) = mix(seed + (c+1) * golden) over one shared draw counter.
std::uint64_t mix64(std::uint64_t z) {
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z;
}

struct TraceId {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  bool operator==(const TraceId&) const = default;
};

struct Retained {
  TraceId id;
  const char* reason = "";
};

struct State {
  std::atomic<bool> enabled{false};
  std::atomic<std::int64_t> epoch_ns{0};
  std::atomic<std::uint64_t> draws{0};   ///< id-stream position
  std::atomic<std::uint64_t> seed{1};    ///< from SamplerConfig::seed

  // Rings are allocated on a thread's first span and kept for the process
  // lifetime (readers hold bare pointers); reset() only clears them.
  std::array<std::atomic<ThreadRing*>, kMaxThreadRings> rings{};
  std::mutex ring_alloc_mutex;
  std::vector<std::unique_ptr<ThreadRing>> owned_rings;

  // Sampler state is cold relative to the span path — decisions happen at
  // request completion, never inside kernel loops — so a mutex is fine.
  std::mutex sampler_mutex;
  SamplerConfig config;
  std::deque<Retained> retained_traces;  ///< FIFO, oldest first
  std::vector<TraceId> forced;           ///< keep-demands awaiting the root
};

State& state() {
  static State s;
  return s;
}

thread_local TraceContext tl_current{};

std::int64_t steady_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Next id from the seeded deterministic stream. Never returns 0 (0 is the
/// "no trace" sentinel).
std::uint64_t mint_id(State& s) {
  const std::uint64_t draw = s.draws.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t v =
      mix64(s.seed.load(std::memory_order_relaxed) + (draw + 1) * kGolden);
  return v != 0 ? v : 1;
}

ThreadRing& ring_for_thread(State& s) {
  const std::size_t idx = thread_index() % kMaxThreadRings;
  ThreadRing* ring = s.rings[idx].load(std::memory_order_acquire);
  if (ring != nullptr) return *ring;
  const std::scoped_lock lock(s.ring_alloc_mutex);
  ring = s.rings[idx].load(std::memory_order_relaxed);
  if (ring == nullptr) {
    s.owned_rings.push_back(std::make_unique<ThreadRing>());
    ring = s.owned_rings.back().get();
    s.rings[idx].store(ring, std::memory_order_release);
  }
  return *ring;
}

/// The always-keep rules, in precedence order for the recorded reason.
/// Returns nullptr when the verdict alone does not demand retention.
const char* keep_reason(const SamplerConfig& config, const Verdict& verdict) {
  if (!verdict.ok) return "error";
  if (verdict.deadline_missed) return "deadline";
  if (verdict.rung > 0) return "degraded";
  if (verdict.slo_breach) return "slo";
  if (config.keep_slower_than_seconds >= 0.0 &&
      verdict.wall_seconds > config.keep_slower_than_seconds) {
    return "slow";
  }
  return nullptr;
}

/// Deterministic uniform in [0, 1) from the trace id — the sampling coin
/// depends on identity, not on schedule or clock.
double sample_coin(std::uint64_t seed, const TraceId& id) {
  const std::uint64_t h = mix64(id.lo ^ mix64(id.hi ^ seed));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Caller holds sampler_mutex. Erases and reports any pending forced-keep
/// demand for `id`.
bool take_forced_locked(State& s, const TraceId& id) {
  const auto it = std::find(s.forced.begin(), s.forced.end(), id);
  if (it == s.forced.end()) return false;
  s.forced.erase(it);
  return true;
}

/// Caller holds sampler_mutex.
void add_forced_locked(State& s, const TraceId& id) {
  if (std::find(s.forced.begin(), s.forced.end(), id) != s.forced.end()) return;
  // Bounded: a leak here would only grow if roots never finish, which the
  // RequestScope destructor rules out; the cap is a belt for torn-down
  // traces (service shutdown mid-batch).
  if (s.forced.size() >= 1024) s.forced.erase(s.forced.begin());
  s.forced.push_back(id);
  registry().counter(metric::kTraceForcedKeeps).add(1);
}

/// Append one span to the calling thread's ring. Caller checked enabled().
void push_span(State& s, const SpanRecord& record) noexcept {
  ring_for_thread(s).push(record);
  registry().counter(metric::kTraceRecordedSpans).add(1);
}

Json span_json(const SpanRecord& span) {
  Json doc = Json::object();
  doc["name"] = span.name;
  doc["kind"] = span_kind_name(span.kind);
  doc["span_id"] = span_id_hex(span.span_id);
  doc["parent_span_id"] = span_id_hex(span.parent_span_id);
  doc["tid"] = static_cast<std::uint64_t>(span.tid);
  doc["start_us"] = span.start_ns / 1000;
  doc["end_us"] = span.end_ns / 1000;
  Json flows = Json::array();
  for (std::uint32_t f = 0; f < span.flow_count; ++f) {
    flows.push_back(span_id_hex(span.flows[f]));
  }
  doc["flows"] = std::move(flows);
  return doc;
}

}  // namespace

void enable(const SamplerConfig& config) {
  State& s = state();
  {
    const std::scoped_lock lock(s.sampler_mutex);
    s.config = config;
    s.config.sample_rate = std::clamp(config.sample_rate, 0.0, 1.0);
    if (s.config.retain_capacity == 0) s.config.retain_capacity = 1;
  }
  s.seed.store(config.seed, std::memory_order_relaxed);
  s.epoch_ns.store(steady_now_ns(), std::memory_order_relaxed);
  s.enabled.store(true, std::memory_order_release);
}

void disable() { state().enabled.store(false, std::memory_order_release); }

bool enabled() noexcept {
  return state().enabled.load(std::memory_order_relaxed);
}

void reset() {
  State& s = state();
  s.enabled.store(false, std::memory_order_release);
  for (std::size_t r = 0; r < kMaxThreadRings; ++r) {
    ThreadRing* ring = s.rings[r].load(std::memory_order_acquire);
    if (ring != nullptr) ring->clear();
  }
  s.draws.store(0, std::memory_order_relaxed);
  const std::scoped_lock lock(s.sampler_mutex);
  s.retained_traces.clear();
  s.forced.clear();
}

std::int64_t now_ns() noexcept {
  State& s = state();
  const std::int64_t epoch = s.epoch_ns.load(std::memory_order_relaxed);
  return epoch == 0 ? 0 : steady_now_ns() - epoch;
}

TraceContext mint_request() noexcept {
  State& s = state();
  if (!s.enabled.load(std::memory_order_relaxed)) return {};
  TraceContext ctx;
  ctx.trace_hi = mint_id(s);
  ctx.trace_lo = mint_id(s);
  ctx.span_id = mint_id(s);
  ctx.parent_span_id = 0;
  return ctx;
}

TraceContext child_of(const TraceContext& parent) noexcept {
  State& s = state();
  if (!s.enabled.load(std::memory_order_relaxed) || !parent.valid()) return {};
  TraceContext ctx;
  ctx.trace_hi = parent.trace_hi;
  ctx.trace_lo = parent.trace_lo;
  ctx.span_id = mint_id(s);
  ctx.parent_span_id = parent.span_id;
  return ctx;
}

const TraceContext& current() noexcept { return tl_current; }

void set_current(const TraceContext& ctx) noexcept { tl_current = ctx; }

void record_span(const TraceContext& ctx, const char* name, SpanKind kind,
                 std::int64_t start_ns, std::int64_t end_ns,
                 std::span<const std::uint64_t> flows) noexcept {
  State& s = state();
  if (!s.enabled.load(std::memory_order_relaxed) || !ctx.valid()) return;
  SpanRecord record{.trace_hi = ctx.trace_hi,
                    .trace_lo = ctx.trace_lo,
                    .span_id = ctx.span_id,
                    .parent_span_id = ctx.parent_span_id,
                    .name = name,
                    .kind = kind,
                    .tid = thread_index(),
                    .start_ns = start_ns,
                    .end_ns = end_ns,
                    .flow_count = static_cast<std::uint32_t>(
                        std::min(flows.size(), kMaxFlows))};
  std::copy_n(flows.begin(), record.flow_count, record.flows.begin());
  push_span(s, record);
}

void record_timeline_span(const char* name, std::int64_t start_ns,
                          std::int64_t end_ns) noexcept {
  State& s = state();
  if (!s.enabled.load(std::memory_order_relaxed)) return;
  push_span(s, SpanRecord{.name = name,
                          .tid = thread_index(),
                          .start_ns = start_ns,
                          .end_ns = end_ns});
}

void finish_request(const TraceContext& ctx, const Verdict& verdict,
                    const TraceContext* force_keep_link) {
  State& s = state();
  if (!s.enabled.load(std::memory_order_relaxed) || !ctx.valid()) return;
  const TraceId id{ctx.trace_hi, ctx.trace_lo};
  const std::scoped_lock lock(s.sampler_mutex);
  registry().counter(metric::kTraceRequests).add(1);
  const char* reason = keep_reason(s.config, verdict);
  const bool forced = take_forced_locked(s, id);
  if (reason == nullptr && forced) reason = "forced";
  if (reason == nullptr &&
      sample_coin(s.config.seed, id) < s.config.sample_rate) {
    reason = "sampled";
  }
  if (reason == nullptr) {
    registry().counter(metric::kTraceSampledOut).add(1);
    return;
  }
  s.retained_traces.push_back(Retained{id, reason});
  while (s.retained_traces.size() > s.config.retain_capacity) {
    s.retained_traces.pop_front();
  }
  registry().counter(metric::kTraceRetained).add(1);
  if (force_keep_link != nullptr && force_keep_link->valid()) {
    add_forced_locked(
        s, TraceId{force_keep_link->trace_hi, force_keep_link->trace_lo});
  }
}

void note_child_verdict(const TraceContext& ctx, const Verdict& verdict) {
  State& s = state();
  if (!s.enabled.load(std::memory_order_relaxed) || !ctx.valid()) return;
  const std::scoped_lock lock(s.sampler_mutex);
  if (keep_reason(s.config, verdict) == nullptr) return;
  add_forced_locked(s, TraceId{ctx.trace_hi, ctx.trace_lo});
}

bool is_retained(const TraceContext& ctx) {
  State& s = state();
  if (!ctx.valid()) return false;
  const TraceId id{ctx.trace_hi, ctx.trace_lo};
  const std::scoped_lock lock(s.sampler_mutex);
  for (const Retained& r : s.retained_traces) {
    if (r.id == id) return true;
  }
  return false;
}

std::vector<SpanRecord> spans() {
  State& s = state();
  std::vector<SpanRecord> out;
  for (std::size_t r = 0; r < kMaxThreadRings; ++r) {
    const ThreadRing* ring = s.rings[r].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (auto& [seq, record] : ring->snapshot()) {
      if (record.name == nullptr) record.name = "";
      out.push_back(record);
    }
  }
  std::sort(out.begin(), out.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.span_id < b.span_id;
  });
  return out;
}

std::vector<RetainedTrace> retained() {
  State& s = state();
  std::vector<RetainedTrace> out;
  {
    const std::scoped_lock lock(s.sampler_mutex);
    out.reserve(s.retained_traces.size());
    for (const Retained& r : s.retained_traces) {
      RetainedTrace trace;
      trace.trace_hi = r.id.hi;
      trace.trace_lo = r.id.lo;
      trace.reason = r.reason;
      out.push_back(std::move(trace));
    }
  }
  // Low trace-id word -> positions in `out`; the high word is checked below.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> index;
  for (std::size_t i = 0; i < out.size(); ++i) index[out[i].trace_lo].push_back(i);
  for (const SpanRecord& span : spans()) {
    if (span.timeline()) continue;
    const auto it = index.find(span.trace_lo);
    if (it == index.end()) continue;
    for (const std::size_t i : it->second) {
      if (out[i].trace_hi == span.trace_hi) out[i].spans.push_back(span);
    }
  }
  return out;
}

std::string jsonl(std::size_t max_traces) {
  std::vector<RetainedTrace> traces = retained();
  const std::size_t begin =
      max_traces > 0 && traces.size() > max_traces ? traces.size() - max_traces
                                                   : 0;
  std::string out;
  for (std::size_t i = begin; i < traces.size(); ++i) {
    const RetainedTrace& trace = traces[i];
    Json doc = Json::object();
    doc["schema"] = "treecode-trace/v1";
    doc["trace_id"] = trace_id_hex(trace.trace_hi, trace.trace_lo);
    doc["reason"] = trace.reason;
    Json spans = Json::array();
    for (const SpanRecord& span : trace.spans) {
      spans.push_back(span_json(span));
    }
    doc["spans"] = std::move(spans);
    out += doc.dump(0);
    out += '\n';
  }
  return out;
}

std::string chrome_json() {
  const std::vector<SpanRecord> all = spans();
  // Flow sources are looked up across every span: the batch span links to
  // request spans that live in other (member) traces.
  std::unordered_map<std::uint64_t, const SpanRecord*> by_span_id;
  for (const SpanRecord& span : all) {
    if (!span.timeline()) by_span_id.emplace(span.span_id, &span);
  }
  // Chrome timestamps are microseconds; doubles keep the ns resolution.
  const auto us = [](std::int64_t ns) { return static_cast<double>(ns) * 1e-3; };
  Json events = Json::array();
  for (const SpanRecord& span : all) {
    Json event = Json::object();
    event["name"] = span.name;
    event["cat"] = span_kind_name(span.kind);
    event["ph"] = "X";
    event["ts"] = us(span.start_ns);
    event["dur"] = us(span.end_ns - span.start_ns);
    event["pid"] = 0;
    event["tid"] = static_cast<std::uint64_t>(span.tid);
    if (!span.timeline()) {
      Json args = Json::object();
      args["trace_id"] = trace_id_hex(span.trace_hi, span.trace_lo);
      args["span_id"] = span_id_hex(span.span_id);
      args["parent_span_id"] = span_id_hex(span.parent_span_id);
      event["args"] = std::move(args);
    }
    events.push_back(std::move(event));
    for (std::uint32_t f = 0; f < span.flow_count; ++f) {
      const auto it = by_span_id.find(span.flows[f]);
      if (it == by_span_id.end()) continue;
      const SpanRecord& source = *it->second;
      // Flow start must sit inside the source slice for Perfetto to bind
      // the arrow; clamp the batch start into the source's window.
      const std::int64_t start_ns =
          std::clamp(span.start_ns, source.start_ns, source.end_ns);
      Json flow_start = Json::object();
      flow_start["name"] = "batch.fanin";
      flow_start["cat"] = "flow";
      flow_start["ph"] = "s";
      flow_start["id"] = span_id_hex(source.span_id);
      flow_start["ts"] = us(start_ns);
      flow_start["pid"] = 0;
      flow_start["tid"] = static_cast<std::uint64_t>(source.tid);
      events.push_back(std::move(flow_start));
      Json flow_end = Json::object();
      flow_end["name"] = "batch.fanin";
      flow_end["cat"] = "flow";
      flow_end["ph"] = "f";
      flow_end["bp"] = "e";
      flow_end["id"] = span_id_hex(source.span_id);
      flow_end["ts"] = us(span.start_ns);
      flow_end["pid"] = 0;
      flow_end["tid"] = static_cast<std::uint64_t>(span.tid);
      events.push_back(std::move(flow_end));
    }
  }
  return events.dump(0);
}

namespace {

bool write_text(const std::string& path, const std::string& text,
                const char* what) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) {
    warn(std::string(what) + " open failed: " + path);
    return false;
  }
  out << text;
  out.flush();
  if (!out) {
    warn(std::string(what) + " write failed: " + path);
    return false;
  }
  return true;
}

}  // namespace

bool write_jsonl(const std::string& path) {
  return write_text(path, jsonl(), "reqtrace jsonl");
}

bool write_chrome_json(const std::string& path) {
  return write_text(path, chrome_json(), "reqtrace chrome trace");
}

#endif  // TREECODE_TRACING_ENABLED

}  // namespace treecode::obs::reqtrace
