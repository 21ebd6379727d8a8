#include "engine/plan_cache.hpp"

#include <atomic>
#include <cstring>
#include <utility>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "obs/spans.hpp"
#include "util/fault_inject.hpp"
#include "util/resource_governor.hpp"

namespace treecode::engine {

namespace {

/// Bytewise target-set equality. Vec3 is three doubles with no padding, so
/// memcmp compares exact bit patterns — sanitized target sets containing
/// NaNs still compare equal to themselves, keeping the cache warm under
/// ValidationPolicy::kSanitize.
bool same_targets(const EvalPlan& plan, std::span<const Vec3> targets, bool self) {
  static_assert(sizeof(Vec3) == 3 * sizeof(double), "Vec3 must be padding-free");
  if (plan.self != self || plan.targets.size() != targets.size()) return false;
  if (targets.empty()) return true;
  return std::memcmp(plan.targets.data(), targets.data(),
                     targets.size() * sizeof(Vec3)) == 0;
}

/// Process-wide resident total across every live PlanCache. The
/// engine.plan_bytes gauge publishes this aggregate: with one cache per
/// tenant session, a per-cache gauge `set` would let caches overwrite each
/// other's totals and leave a destroyed tenant's bytes on the series
/// forever. Instead each cache contributes a delta on every mutation and
/// withdraws its whole contribution on destruction, so the gauge tracks
/// exactly the plans that are still resident somewhere.
std::atomic<long long> g_plan_bytes_total{0};

}  // namespace

PlanCache::PlanCache(std::size_t capacity, std::size_t byte_capacity)
    : capacity_(capacity == 0 ? 1 : capacity), byte_capacity_(byte_capacity) {}

PlanCache::~PlanCache() { clear(); }  // withdraws this cache's share from the gauges

std::shared_ptr<const EvalPlan> PlanCache::find(std::uint64_t key,
                                                std::span<const Vec3> targets,
                                                bool self) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_key_.find(key);
  if (it == by_key_.end() || !same_targets(*it->second->plan, targets, self)) {
    ++misses_;
    return nullptr;
  }
  if (fault::fire(fault::Site::kCacheVerifyMiss)) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  plans_.splice(plans_.begin(), plans_, it->second);  // touch: move to MRU
  return it->second->plan;
}

void PlanCache::evict_lru_locked() {
  const Entry& victim = plans_.back();
  const std::size_t victim_bytes = victim.plan->memory_bytes();
  by_key_.erase(victim.plan->key);
  obs::reqtrace::record_event(obs::span::kPlanCacheEvict,
                              static_cast<double>(victim_bytes));
  bytes_ -= victim_bytes;
  plans_.pop_back();  // ~Entry returns the reservation to the budget
  ++evictions_;
}

void PlanCache::publish_gauges_locked() {
  const long long plan_delta = static_cast<long long>(bytes_) -
                               static_cast<long long>(published_bytes_);
  const long long plan_total =
      g_plan_bytes_total.fetch_add(plan_delta, std::memory_order_relaxed) +
      plan_delta;
  published_bytes_ = bytes_;
  obs::Registry& reg = obs::registry();
  reg.gauge(obs::metric::kEnginePlanBytes).set(static_cast<double>(plan_total));
}

bool PlanCache::insert(std::shared_ptr<const EvalPlan> plan,
                       ResourceGovernor::Reservation reservation) {
  if (plan == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t key = plan->key;
  const std::size_t new_bytes = plan->memory_bytes();
  if (const auto it = by_key_.find(key); it != by_key_.end()) {
    bytes_ -= it->second->plan->memory_bytes();
    plans_.erase(it->second);  // ~Entry releases the replaced reservation
    by_key_.erase(it);
  }
  if (byte_capacity_ != 0 && new_bytes > byte_capacity_) {
    // The plan alone busts the byte capacity: caching it would immediately
    // evict everything else and still sit over budget. Serve it transient;
    // `reservation` returns the bytes on the way out.
    obs::reqtrace::record_event(obs::span::kPlanCacheUncacheable,
                                static_cast<double>(new_bytes));
    publish_gauges_locked();
    return false;
  }
  while (!plans_.empty() &&
         (plans_.size() >= capacity_ ||
          (byte_capacity_ != 0 && bytes_ + new_bytes > byte_capacity_))) {
    evict_lru_locked();
  }
  bytes_ += new_bytes;
  plans_.push_front(Entry{std::move(plan), std::move(reservation)});
  by_key_[key] = plans_.begin();
  publish_gauges_locked();
  return true;
}

void PlanCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  plans_.clear();  // each ~Entry returns its reservation
  by_key_.clear();
  bytes_ = 0;
  publish_gauges_locked();
}

std::size_t PlanCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

std::size_t PlanCache::capacity() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

std::size_t PlanCache::byte_capacity() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return byte_capacity_;
}

std::size_t PlanCache::bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::uint64_t PlanCache::hits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t PlanCache::misses() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::uint64_t PlanCache::evictions() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

std::vector<PlanCache::PlanInfo> PlanCache::contents() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<PlanInfo> out;
  out.reserve(plans_.size());
  for (const auto& entry : plans_) {  // MRU first: list order is recency
    const EvalPlan& plan = *entry.plan;
    PlanInfo info;
    info.key = plan.key;
    info.self = plan.self;
    info.num_targets = plan.num_targets();
    info.num_entries = plan.entries.size();
    info.bytes = plan.memory_bytes();
    out.push_back(info);
  }
  return out;
}

}  // namespace treecode::engine
