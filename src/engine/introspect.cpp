#include "engine/introspect.hpp"

#include <cstdio>

#include "obs/recorder.hpp"
#include "obs/report.hpp"
#include "obs/reqtrace.hpp"

namespace treecode::engine {

namespace {

obs::Json key_hex(std::uint64_t key) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(key));
  return {buf};
}

obs::Json session_json(const EvalSession& session) {
  obs::Json s = obs::Json::object();
  s["num_particles"] = static_cast<std::uint64_t>(session.tree().num_particles());
  s["num_nodes"] = static_cast<std::uint64_t>(session.tree().nodes().size());
  s["threads"] = static_cast<std::uint64_t>(session.pool().width());
  const EvalConfig& config = session.config();
  s["alpha"] = config.alpha;
  s["degree"] = config.degree;
  s["memory_budget_bytes"] = static_cast<std::uint64_t>(config.memory_budget_bytes);
  s["deadline_seconds"] = config.deadline_seconds;
  s["audit_samples"] = static_cast<std::uint64_t>(config.audit_samples);
  return s;
}

/// The request log (obs/reqtrace.hpp) under its long-standing name.
obs::Json telemetry_json() {
  namespace rt = obs::reqtrace;
  obs::Json t = obs::Json::object();
  t["enabled"] = rt::enabled();
  t["emitted"] = rt::logged_count();
  obs::Json records = obs::Json::array();
  for (const rt::RequestRecord& record : rt::records()) {
    records.push_back(rt::record_json(record));
  }
  t["records"] = std::move(records);
  return t;
}

}  // namespace

obs::Json governor_json(const ResourceGovernor& governor) {
  const ResourceGovernor::Snapshot s = governor.snapshot();
  obs::Json g = obs::Json::object();
  g["enabled"] = s.enabled;
  g["budget_bytes"] = static_cast<std::uint64_t>(s.budget);
  g["used_bytes"] = static_cast<std::uint64_t>(s.used);
  // SIZE_MAX (unlimited) would round through double; report null instead.
  if (s.enabled) {
    g["remaining_bytes"] = static_cast<std::uint64_t>(s.remaining);
  } else {
    g["remaining_bytes"] = obs::Json();
  }
  g["reservations"] = s.reservations;
  g["denials"] = s.denials;
  g["deadline_armed"] = s.deadline_armed;
  return g;
}

obs::Json plan_cache_json(const PlanCache& cache) {
  obs::Json c = obs::Json::object();
  c["size"] = static_cast<std::uint64_t>(cache.size());
  c["capacity"] = static_cast<std::uint64_t>(cache.capacity());
  c["byte_capacity"] = static_cast<std::uint64_t>(cache.byte_capacity());
  c["bytes"] = static_cast<std::uint64_t>(cache.bytes());
  c["hits"] = cache.hits();
  c["misses"] = cache.misses();
  c["evictions"] = cache.evictions();
  obs::Json plans = obs::Json::array();
  for (const PlanCache::PlanInfo& info : cache.contents()) {
    obs::Json p = obs::Json::object();
    p["key"] = key_hex(info.key);
    p["self"] = info.self;
    p["num_targets"] = static_cast<std::uint64_t>(info.num_targets);
    p["num_entries"] = static_cast<std::uint64_t>(info.num_entries);
    p["bytes"] = static_cast<std::uint64_t>(info.bytes);
    plans.push_back(std::move(p));
  }
  c["plans"] = std::move(plans);
  return c;
}

obs::Json inspect_json(const EvalSession* session) {
  obs::Json doc = obs::Json::object();
  doc["schema"] = "treecode-inspect/v1";
  doc["provenance"] = obs::provenance_json();
  if (session != nullptr) {
    doc["session"] = session_json(*session);
    doc["governor"] = governor_json(session->governor());
    doc["plan_cache"] = plan_cache_json(session->cache());
  }
  doc["telemetry"] = telemetry_json();
  doc["flight_recorder"] = obs::recorder::to_json("inspect");
  doc["metrics"] = obs::metrics_json(obs::registry().snapshot());
  obs::Json warnings = obs::Json::array();
  for (const std::string& w : obs::warnings()) warnings.push_back(w);
  doc["warnings"] = std::move(warnings);
  return doc;
}

}  // namespace treecode::engine
