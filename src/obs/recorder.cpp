#include "obs/recorder.hpp"

#include <mutex>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/seq_ring.hpp"

namespace treecode::obs::recorder {

namespace {

struct State {
  SeqRing<Event, kCapacity> ring;
  std::atomic<bool> enabled{false};
  std::atomic<std::int64_t> epoch_us{0};
  std::atomic<std::uint64_t> triggers{0};
  // Dump-path state is cold (configured once, read on trigger); a mutex is
  // fine here and keeps the string out of the lock-free part.
  std::mutex dump_mutex;
  std::string dump_path;
};

State& state() {
  static State s;
  return s;
}

}  // namespace

const char* category_name(Category c) {
  switch (c) {
    case Category::kPhase: return "phase";
    case Category::kBudget: return "budget";
    case Category::kEviction: return "eviction";
    case Category::kInvariant: return "invariant";
    case Category::kNonFinite: return "nonfinite";
    case Category::kWarning: return "warning";
    case Category::kAudit: return "audit";
    case Category::kCustom: return "custom";
  }
  return "unknown";
}

void start() {
  State& s = state();
  s.epoch_us.store(steady_now_us(), std::memory_order_relaxed);
  s.enabled.store(true, std::memory_order_release);
}

void stop() { state().enabled.store(false, std::memory_order_release); }

bool enabled() { return state().enabled.load(std::memory_order_relaxed); }

void reset() {
  State& s = state();
  s.enabled.store(false, std::memory_order_release);
  s.ring.clear();
  s.triggers.store(0, std::memory_order_relaxed);
  const std::scoped_lock lock(s.dump_mutex);
  s.dump_path.clear();
}

void record(Category category, const char* label, double value) noexcept {
  State& s = state();
  if (!s.enabled.load(std::memory_order_relaxed)) return;
  s.ring.push(Event{.ts_us = steady_now_us() - s.epoch_us.load(std::memory_order_relaxed),
                    .tid = thread_index(),
                    .category = category,
                    .label = label,
                    .value = value});
}

std::vector<Event> events() {
  const auto snapshot = state().ring.snapshot();
  std::vector<Event> out;
  out.reserve(snapshot.size());
  for (auto [seq, e] : snapshot) {
    e.seq = seq;
    if (e.label == nullptr) e.label = "";
    out.push_back(e);
  }
  return out;
}

std::uint64_t recorded_count() { return state().ring.pushed(); }

Json to_json(const std::string& reason) {
  const std::vector<Event> snapshot = events();
  const std::uint64_t recorded = recorded_count();
  Json doc = Json::object();
  doc["schema"] = "treecode-flight-record/v2";
  doc["reason"] = reason;
  // v2: the same provenance block bench reports carry (git SHA, compiler,
  // host, UTC timestamp), so a post-mortem dump found on disk weeks later
  // is attributable to a build and a machine.
  doc["provenance"] = provenance_json();
  doc["recorded"] = recorded;
  doc["dropped"] = recorded > snapshot.size()
                       ? recorded - static_cast<std::uint64_t>(snapshot.size())
                       : std::uint64_t{0};
  Json list = Json::array();
  for (const Event& e : snapshot) {
    Json item = Json::object();
    item["seq"] = e.seq;
    item["ts_us"] = e.ts_us;
    item["tid"] = static_cast<std::uint64_t>(e.tid);
    item["category"] = category_name(e.category);
    item["label"] = e.label;
    item["value"] = e.value;
    list.push_back(std::move(item));
  }
  doc["events"] = std::move(list);
  return doc;
}

void set_dump_path(std::string path) {
  State& s = state();
  const std::scoped_lock lock(s.dump_mutex);
  s.dump_path = std::move(path);
}

bool dump(const std::string& path, const std::string& reason) {
  try {
    write_json_file(path, to_json(reason));
    return true;
  } catch (const std::exception& e) {
    warn(std::string("flight recorder dump failed: ") + e.what());
    return false;
  }
}

void trigger(const std::string& reason) {
  State& s = state();
  record(Category::kCustom, "recorder.trigger", 0.0);
  std::string path;
  {
    const std::scoped_lock lock(s.dump_mutex);
    path = s.dump_path;
  }
  if (path.empty()) return;
  if (dump(path, reason)) s.triggers.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t trigger_count() {
  return state().triggers.load(std::memory_order_relaxed);
}

}  // namespace treecode::obs::recorder
