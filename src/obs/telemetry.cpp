#include "obs/telemetry.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <utility>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/reqtrace.hpp"
#include "obs/seq_ring.hpp"

namespace treecode::obs::telemetry {

namespace {

struct State {
  SeqRing<RequestRecord, kRingCapacity> ring;
  std::atomic<bool> enabled{false};
  std::atomic<std::int64_t> epoch_us{0};
  // Sink state is cold relative to the ring (one line per finished request);
  // a mutex serializes appends and rotation.
  std::mutex sink_mutex;
  std::string sink_path;
  std::ofstream sink;
  std::uint64_t sink_bytes = 0;
  std::uint64_t rotate_bytes = 0;
  unsigned max_files = 3;
};

State& state() {
  static State s;
  return s;
}

/// Degradation-ladder rung names, matching core ServeRung's enumerator
/// values (obs cannot include core/config.hpp — util links obs).
const char* rung_name(std::int8_t rung) {
  switch (rung) {
    case 0: return "basis_replay";
    case 1: return "plain_replay";
    case 2: return "traversal";
    case 3: return "direct";
    default: return "none";
  }
}

/// Rotate path.<max-2> -> path.<max-1>, ..., path -> path.1 and reopen.
/// Called with sink_mutex held.
void rotate_locked(State& s) {
  s.sink.close();
  for (unsigned i = s.max_files - 1; i >= 1; --i) {
    const std::string to = s.sink_path + "." + std::to_string(i);
    const std::string from =
        i == 1 ? s.sink_path : s.sink_path + "." + std::to_string(i - 1);
    std::remove(to.c_str());
    std::rename(from.c_str(), to.c_str());
  }
  s.sink.open(s.sink_path, std::ios::out | std::ios::trunc);
  s.sink_bytes = 0;
  registry().counter(metric::kTelemetrySinkRotations).add(1);
}

/// Append one JSONL line, rotating first if it would exceed the budget.
/// Called with sink_mutex held.
void append_line_locked(State& s, const std::string& line) {
  if (!s.sink.is_open()) return;
  const std::uint64_t bytes = line.size() + 1;
  if (s.rotate_bytes > 0 && s.sink_bytes > 0 &&
      s.sink_bytes + bytes > s.rotate_bytes) {
    rotate_locked(s);
  }
  s.sink << line << '\n';
  s.sink.flush();
  if (!s.sink) {
    registry().counter(metric::kTelemetrySinkErrors).add(1);
    s.sink.clear();
  } else {
    s.sink_bytes += bytes;
  }
}

std::span<const double> request_seconds_bounds() {
  // 1us .. ~1000s in factor-4 decades: replay latencies cluster around
  // milliseconds, compile around seconds; the tails matter for p99.
  static const std::vector<double> bounds = exponential_buckets(1e-6, 4.0, 16);
  return bounds;
}

}  // namespace

const char* api_name(Api api) {
  switch (api) {
    case Api::kCompile: return "compile";
    case Api::kCompileSelf: return "compile_self";
    case Api::kUpdateCharges: return "update_charges";
    case Api::kUpdateChargesSorted: return "update_charges_sorted";
    case Api::kEvaluatePlan: return "evaluate_plan";
    case Api::kEvaluateAt: return "evaluate_at";
    case Api::kEvaluateSelf: return "evaluate_self";
    case Api::kEvaluateBatch: return "evaluate_batch";
    case Api::kServiceRegister: return "service_register";
    case Api::kServiceSubmit: return "service_submit";
    case Api::kServiceUnregister: return "service_unregister";
    case Api::kServiceServe: return "service_serve";
  }
  return "unknown";
}

void enable() {
  State& s = state();
  s.epoch_us.store(steady_now_us(), std::memory_order_relaxed);
  s.enabled.store(true, std::memory_order_release);
}

void disable() { state().enabled.store(false, std::memory_order_release); }

bool enabled() { return state().enabled.load(std::memory_order_relaxed); }

void reset() {
  State& s = state();
  s.enabled.store(false, std::memory_order_release);
  s.ring.clear();
  const std::scoped_lock lock(s.sink_mutex);
  if (s.sink.is_open()) s.sink.close();
  s.sink_path.clear();
  s.sink_bytes = 0;
  s.rotate_bytes = 0;
  s.max_files = 3;
}

void set_sink(std::string path, std::uint64_t rotate_bytes, unsigned max_files) {
  State& s = state();
  const std::scoped_lock lock(s.sink_mutex);
  if (s.sink.is_open()) s.sink.close();
  s.sink_path = std::move(path);
  s.rotate_bytes = rotate_bytes;
  s.max_files = max_files < 2 ? 2 : max_files;
  s.sink_bytes = 0;
  s.sink.open(s.sink_path, std::ios::out | std::ios::trunc);
  if (!s.sink.is_open()) {
    registry().counter(metric::kTelemetrySinkErrors).add(1);
    warn("telemetry sink open failed: " + s.sink_path);
  }
}

void close_sink() {
  State& s = state();
  const std::scoped_lock lock(s.sink_mutex);
  if (s.sink.is_open()) s.sink.close();
  s.sink_path.clear();
}

void emit(RequestRecord record) {
  State& s = state();
  if (!s.enabled.load(std::memory_order_relaxed)) return;
  record.ts_us = steady_now_us() - s.epoch_us.load(std::memory_order_relaxed);
  record.seq = s.ring.push(record);

  Registry& reg = registry();
  reg.counter(metric::kTelemetryRequests).add(1);
  if (!record.ok) reg.counter(metric::kTelemetryErrors).add(1);
  reg.histogram(metric::kTelemetryRequestSeconds, request_seconds_bounds())
      .observe(record.wall_seconds);

  const std::scoped_lock lock(s.sink_mutex);
  if (s.sink.is_open()) append_line_locked(s, to_json(record).dump(0));
}

std::vector<RequestRecord> records() {
  const auto snapshot = state().ring.snapshot();
  std::vector<RequestRecord> out;
  out.reserve(snapshot.size());
  for (auto [seq, r] : snapshot) {
    r.seq = seq;
    if (r.outcome_name == nullptr) r.outcome_name = "ok";
    out.push_back(r);
  }
  return out;
}

std::uint64_t emitted_count() { return state().ring.pushed(); }

Json to_json(const RequestRecord& record) {
  char key_hex[19];
  std::snprintf(key_hex, sizeof key_hex, "0x%016llx",
                static_cast<unsigned long long>(record.plan_key));
  Json doc = Json::object();
  doc["schema"] = "treecode-request-record/v2";
  doc["seq"] = record.seq;
  doc["ts_us"] = record.ts_us;
  doc["api"] = api_name(record.api);
  doc["plan_key"] = key_hex;
  doc["rung"] = static_cast<std::int64_t>(record.rung);
  doc["rung_name"] = rung_name(record.rung);
  doc["outcome"] = record.outcome_name;
  doc["ok"] = record.ok;
  doc["wall_seconds"] = record.wall_seconds;
  doc["targets"] = record.targets;
  doc["plan_bytes"] = record.plan_bytes;
  doc["basis_bytes"] = record.basis_bytes;
  // NaN marks "no deadline armed"; the JSON writer turns it into null.
  doc["deadline_slack_seconds"] = record.deadline_slack_seconds;
  doc["audit_max_tightness"] = record.audit_max_tightness;
  doc["threads"] = static_cast<std::uint64_t>(record.threads);
  doc["batch_width"] = static_cast<std::uint64_t>(record.batch_width);
  doc["trace_id"] = reqtrace::trace_id_hex(record.trace_hi, record.trace_lo);
  doc["queue_wait_seconds"] = record.queue_wait_seconds;
  doc["batch_seq"] = record.batch_seq;
  return doc;
}

}  // namespace treecode::obs::telemetry
