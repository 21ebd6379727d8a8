#include "obs/report.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <mutex>

#include "obs/recorder.hpp"
#include "obs/reqtrace.hpp"

namespace treecode::obs {

// ---- warning channel -------------------------------------------------------

namespace {
std::mutex g_warnings_mutex;
std::vector<std::string>& warning_list() {
  static std::vector<std::string> list;
  return list;
}
}  // namespace

void warn(std::string message) {
  // The recorder only keeps static labels; the message text itself is in
  // the warning sink, the event just timestamps that *a* warning fired.
  recorder::record(recorder::Category::kWarning, "obs.warn", 0.0);
  std::lock_guard lock(g_warnings_mutex);
  auto& list = warning_list();
  if (std::find(list.begin(), list.end(), message) == list.end()) {
    list.push_back(std::move(message));
  }
}

std::vector<std::string> warnings() {
  std::lock_guard lock(g_warnings_mutex);
  return warning_list();
}

std::vector<std::string> drain_warnings() {
  std::lock_guard lock(g_warnings_mutex);
  return std::exchange(warning_list(), {});
}

// ---- serializers -----------------------------------------------------------

Json metrics_json(const MetricsSnapshot& snapshot) {
  Json m = Json::object();
  Json& counters = m["counters"] = Json::object();
  for (const auto& [name, v] : snapshot.counters) counters[name] = v;
  Json& gauges = m["gauges"] = Json::object();
  for (const auto& [name, v] : snapshot.gauges) gauges[name] = v;
  Json& maxima = m["gauge_maxima"] = Json::object();
  for (const auto& [name, v] : snapshot.gauge_maxima) maxima[name] = v;
  Json& hists = m["histograms"] = Json::object();
  for (const auto& [name, h] : snapshot.histograms) {
    Json& hj = hists[name] = Json::object();
    Json& bounds = hj["bounds"] = Json::array();
    for (const double b : h.bounds) bounds.push_back(b);
    Json& counts = hj["counts"] = Json::array();
    for (const std::uint64_t c : h.counts) counts.push_back(c);
    hj["total"] = h.total;
    hj["sum"] = h.sum;
  }
  Json& series = m["series"] = Json::object();
  for (const auto& [name, values] : snapshot.series) {
    Json& sj = series[name] = Json::array();
    for (const double v : values) sj.push_back(v);
  }
  return m;
}

Json spans_json() {
  Json arr = Json::array();
  for (const reqtrace::SpanRecord& s : reqtrace::spans()) {
    Json span = Json::object();
    span["name"] = s.name;
    span["tid"] = static_cast<std::uint64_t>(s.tid);
    span["ts_us"] = static_cast<double>(s.start_ns) * 1e-3;
    span["dur_us"] = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    arr.push_back(std::move(span));
  }
  return arr;
}

// ---- provenance ------------------------------------------------------------

Json provenance_json() {
  Json p = Json::object();
  const char* sha = std::getenv("TREECODE_GIT_SHA");
  p["git_sha"] = (sha != nullptr && *sha != '\0') ? sha : "unknown";
#if defined(__VERSION__)
  p["compiler"] = __VERSION__;
#else
  p["compiler"] = "unknown";
#endif
#if defined(NDEBUG)
  p["assertions"] = false;
#else
  p["assertions"] = true;
#endif
#if defined(TREECODE_CHECK_INVARIANTS)
  p["invariants"] = true;
#else
  p["invariants"] = false;
#endif
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
    p["host"] = host;
  } else {
    p["host"] = "unknown";
  }
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  char stamp[32] = {};
  if (gmtime_r(&now, &tm_utc) != nullptr &&
      std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &tm_utc) > 0) {
    p["utc"] = stamp;
  } else {
    p["utc"] = "unknown";
  }
  return p;
}

// ---- RunReport -------------------------------------------------------------

RunReport::RunReport(std::string tool) : tool_(std::move(tool)) {}

Json RunReport::build() const {
  Json doc = Json::object();
  doc["schema"] = kReportSchema;
  doc["tool"] = tool_;
  doc["config"] = config_;
  doc["results"] = results_;
  doc["provenance"] = provenance_json();
  const MetricsSnapshot snapshot = registry().snapshot();
  // Tightness block: only when the audit engine actually sampled something
  // this process, so non-auditing reports stay v1-shaped plus provenance.
  const auto counter_it = snapshot.counters.find("audit.samples");
  if (counter_it != snapshot.counters.end() && counter_it->second > 0) {
    Json& t = doc["tightness"] = Json::object();
    t["samples"] = counter_it->second;
    const auto violations_it = snapshot.counters.find("audit.bound_violations");
    t["bound_violations"] =
        violations_it != snapshot.counters.end() ? violations_it->second : 0;
    const auto max_it = snapshot.gauge_maxima.find("audit.max_tightness");
    t["max"] = max_it != snapshot.gauge_maxima.end() ? max_it->second : 0.0;
    const auto hist_it = snapshot.histograms.find("audit.tightness");
    if (hist_it != snapshot.histograms.end() && hist_it->second.total > 0) {
      t["mean"] = hist_it->second.sum / static_cast<double>(hist_it->second.total);
    } else {
      t["mean"] = 0.0;
    }
  }
  doc["metrics"] = metrics_json(snapshot);
  doc["spans"] = spans_json();
  Json& warn_arr = doc["warnings"] = Json::array();
  for (const std::string& w : warnings()) warn_arr.push_back(w);
  return doc;
}

void RunReport::write(const std::string& path) const { write_json_file(path, build()); }

}  // namespace treecode::obs
