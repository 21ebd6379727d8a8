#include "util/resource_governor.hpp"

#include <chrono>
#include <limits>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "util/fault_inject.hpp"

namespace treecode {

namespace {

std::int64_t steady_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::size_t ResourceGovernor::remaining() const noexcept {
  const std::size_t cap = budget();
  if (cap == 0) return std::numeric_limits<std::size_t>::max();
  const std::size_t in_use = used();
  return in_use >= cap ? 0 : cap - in_use;
}

bool ResourceGovernor::try_reserve(std::size_t bytes, const char* label) noexcept {
  reservations_.fetch_add(1, std::memory_order_relaxed);
  const bool injected = fault::fire(fault::Site::kEngineAlloc);
  const std::size_t cap = budget();
  bool denied = injected;
  if (!denied && cap != 0) {
    // CAS loop instead of fetch_add/rollback: a rollback window would let a
    // concurrent reserve observe phantom usage and deny spuriously.
    std::size_t cur = used_.load(std::memory_order_relaxed);
    for (;;) {
      if (bytes > cap || cur > cap - bytes) {
        denied = true;
        break;
      }
      if (used_.compare_exchange_weak(cur, cur + bytes, std::memory_order_relaxed)) {
        break;
      }
    }
  } else if (!denied) {
    used_.fetch_add(bytes, std::memory_order_relaxed);
  }
  if (denied) {
    denials_.fetch_add(1, std::memory_order_relaxed);
    last_denial_fault_.store(injected, std::memory_order_relaxed);
    obs::registry().counter(obs::metric::kGovernorDenials).add(1);
    obs::reqtrace::record_event(label, static_cast<double>(bytes));
    return false;
  }
  obs::registry().gauge(obs::metric::kGovernorUsedBytes).record_max(static_cast<double>(used()));
  return true;
}

bool ResourceGovernor::can_reserve(std::size_t bytes) const noexcept {
  const std::size_t cap = budget();
  if (cap == 0) return true;
  const std::size_t in_use = used();
  return bytes <= cap && in_use <= cap - bytes;
}

void ResourceGovernor::release(std::size_t bytes) noexcept {
  std::size_t cur = used_.load(std::memory_order_relaxed);
  for (;;) {
    const std::size_t next = cur >= bytes ? cur - bytes : 0;
    if (used_.compare_exchange_weak(cur, next, std::memory_order_relaxed)) return;
  }
}

void ResourceGovernor::arm_deadline(double seconds) noexcept {
  if (seconds <= 0.0) {
    disarm_deadline();
    return;
  }
  const auto delta = static_cast<std::int64_t>(seconds * 1e9);
  deadline_ns_.store(steady_now_ns() + delta, std::memory_order_relaxed);
}

bool ResourceGovernor::deadline_expired() const noexcept {
  const std::int64_t at = deadline_ns_.load(std::memory_order_relaxed);
  return at != 0 && steady_now_ns() >= at;
}

}  // namespace treecode
