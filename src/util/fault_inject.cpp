#include "util/fault_inject.hpp"

namespace treecode::fault {

const char* site_name(Site site) noexcept {
  switch (site) {
    case Site::kEngineAlloc: return "engine_alloc";
    case Site::kNanCharge: return "nan_charge";
    case Site::kCacheVerifyMiss: return "cache_verify_miss";
    case Site::kSlowWorker: return "slow_worker";
  }
  return "unknown";
}

}  // namespace treecode::fault

#ifdef TREECODE_FAULT_INJECT

#include <array>
#include <atomic>
#include <cstddef>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"

namespace treecode::fault {

namespace {

enum class Mode : std::uint8_t { kOff = 0, kNth, kEvery, kRandom };

/// Per-site plan + counters. Atomics keep concurrent hits well-defined
/// (kSlowWorker is hit from workers); deterministic *firing* additionally
/// relies on serial hit order, which the serial-phase sites guarantee.
struct SiteState {
  std::atomic<std::uint8_t> mode{static_cast<std::uint8_t>(Mode::kOff)};
  std::atomic<std::uint64_t> fire_at{0};       ///< absolute hit ordinal for kNth
  std::atomic<std::uint64_t> threshold{0};     ///< kRandom: fire when hash < threshold
  std::atomic<std::uint64_t> hit_count{0};
  std::atomic<std::uint64_t> fired_count{0};
};

std::array<SiteState, kNumSites> g_sites;
std::atomic<std::uint64_t> g_seed{0};

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

SiteState& state(Site site) noexcept { return g_sites[static_cast<std::size_t>(site)]; }

}  // namespace

void set_seed(std::uint64_t seed_value) noexcept {
  g_seed.store(seed_value, std::memory_order_relaxed);
}

std::uint64_t seed() noexcept { return g_seed.load(std::memory_order_relaxed); }

void arm_nth(Site site, std::uint64_t nth) noexcept {
  SiteState& s = state(site);
  s.fire_at.store(s.hit_count.load(std::memory_order_relaxed) + (nth == 0 ? 1 : nth),
                  std::memory_order_relaxed);
  s.mode.store(static_cast<std::uint8_t>(Mode::kNth), std::memory_order_relaxed);
}

void arm_every(Site site) noexcept {
  state(site).mode.store(static_cast<std::uint8_t>(Mode::kEvery),
                         std::memory_order_relaxed);
}

void arm_random(Site site, double probability) noexcept {
  SiteState& s = state(site);
  if (probability <= 0.0) {
    s.threshold.store(0, std::memory_order_relaxed);
  } else if (probability >= 1.0) {
    s.threshold.store(~std::uint64_t{0}, std::memory_order_relaxed);
  } else {
    s.threshold.store(
        static_cast<std::uint64_t>(probability * 18446744073709551615.0),
        std::memory_order_relaxed);
  }
  s.mode.store(static_cast<std::uint8_t>(Mode::kRandom), std::memory_order_relaxed);
}

void disarm(Site site) noexcept {
  state(site).mode.store(static_cast<std::uint8_t>(Mode::kOff),
                         std::memory_order_relaxed);
}

void reset() noexcept {
  for (SiteState& s : g_sites) {
    s.mode.store(static_cast<std::uint8_t>(Mode::kOff), std::memory_order_relaxed);
    s.fire_at.store(0, std::memory_order_relaxed);
    s.threshold.store(0, std::memory_order_relaxed);
    s.hit_count.store(0, std::memory_order_relaxed);
    s.fired_count.store(0, std::memory_order_relaxed);
  }
  g_seed.store(0, std::memory_order_relaxed);
}

bool fire(Site site) noexcept {
  SiteState& s = state(site);
  const std::uint64_t hit =
      s.hit_count.fetch_add(1, std::memory_order_relaxed) + 1;  // 1-based ordinal
  bool fires = false;
  switch (static_cast<Mode>(s.mode.load(std::memory_order_relaxed))) {
    case Mode::kOff:
      break;
    case Mode::kNth:
      if (hit == s.fire_at.load(std::memory_order_relaxed)) {
        fires = true;
        s.mode.store(static_cast<std::uint8_t>(Mode::kOff),
                     std::memory_order_relaxed);  // one-shot
      }
      break;
    case Mode::kEvery:
      fires = true;
      break;
    case Mode::kRandom: {
      const std::uint64_t h = splitmix64(g_seed.load(std::memory_order_relaxed) ^
                                         (static_cast<std::uint64_t>(site) << 56) ^ hit);
      fires = h < s.threshold.load(std::memory_order_relaxed);
      break;
    }
  }
  if (fires) {
    s.fired_count.fetch_add(1, std::memory_order_relaxed);
    obs::registry().counter(obs::metric::kFaultInjected).add(1);
    obs::reqtrace::record_event(site_name(site), static_cast<double>(hit));
  }
  return fires;
}

std::uint64_t hits(Site site) noexcept {
  return state(site).hit_count.load(std::memory_order_relaxed);
}

std::uint64_t fired(Site site) noexcept {
  return state(site).fired_count.load(std::memory_order_relaxed);
}

}  // namespace treecode::fault

#endif  // TREECODE_FAULT_INJECT
