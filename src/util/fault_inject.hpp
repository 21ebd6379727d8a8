#pragma once

/// \file fault_inject.hpp
/// Compile-time-gated deterministic fault-injection harness.
///
/// Every rung of the engine's degradation ladder exists for a failure mode
/// that is nearly impossible to reach organically in a unit test: the Nth
/// allocation being denied, a NaN slipping past validation, a cache hit
/// whose verification fails, a worker stalling past the deadline. This
/// harness plants named injection *sites* at those points; a test arms a
/// site with a counter-based plan and the failure fires deterministically —
/// same build, same arming, same serial call order, same fault — so the CI
/// `fault-inject` job exercises every degradation path on every commit.
///
/// Gating: all of this compiles to nothing unless the build defines
/// TREECODE_FAULT_INJECT (CMake option of the same name). In production
/// builds `fault::fire(site)` is an inline `return false` the optimizer
/// deletes, so sites cost literally zero. Never enable the option in a
/// build whose numbers you intend to keep.
///
/// Arming modes (per site, serial-phase call sites only — the counters are
/// atomics, but deterministic firing additionally requires the site to be
/// hit in a deterministic order, which holds for all current sites except
/// kSlowWorker, a level-triggered stall that needs no ordering):
///  * nth(n)    — fire exactly once, on the n-th hit (1-based);
///  * every()   — fire on every hit while armed (level-triggered);
///  * random(p) — fire with probability p per hit, decided by
///                splitmix64(seed ^ site ^ hit_counter): seeded and
///                counter-based, so a campaign replays exactly.
///
/// Every firing increments the `fault.injected` metrics counter and records
/// a tracer event named after its site, so a test (or a post-mortem trace)
/// can always reconstruct which faults actually fired.

#include <cstdint>

namespace treecode::fault {

/// Injection points planted in the engine. Keep in sync with site_name().
enum class Site : std::uint8_t {
  kEngineAlloc = 0,  ///< ResourceGovernor::try_reserve denies the reservation
  kNanCharge,        ///< update_charges poisons one accepted charge with NaN
  kCacheVerifyMiss,  ///< PlanCache::find discards a verified hit (forced recompile)
  kSlowWorker,       ///< engine replay workers stall ~2 ms per block while armed
};
inline constexpr std::size_t kNumSites = 4;

/// Stable name for a site ("engine_alloc", ...), for logs and event names.
[[nodiscard]] const char* site_name(Site site) noexcept;

#ifdef TREECODE_FAULT_INJECT

inline constexpr bool kEnabled = true;

/// Seed for the random() mode's counter hash. Also recorded so a failing
/// CI campaign can be replayed bit-for-bit.
void set_seed(std::uint64_t seed) noexcept;
[[nodiscard]] std::uint64_t seed() noexcept;

/// Arm `site` to fire exactly once, on its `nth` hit from now (1-based;
/// the hit counter is NOT reset, so arming mid-run counts from the next hit).
void arm_nth(Site site, std::uint64_t nth) noexcept;
/// Arm `site` to fire on every hit until disarmed.
void arm_every(Site site) noexcept;
/// Arm `site` to fire with probability `probability` per hit (seeded,
/// counter-based — deterministic for a fixed seed and hit order).
void arm_random(Site site, double probability) noexcept;
void disarm(Site site) noexcept;
/// Disarm every site and zero all hit/fired counters (test setup).
void reset() noexcept;

/// Count a hit at `site` and report whether the armed plan fires. Records
/// the firing to metrics + a tracer event.
[[nodiscard]] bool fire(Site site) noexcept;

/// Hits (armed or not) and firings since the last reset().
[[nodiscard]] std::uint64_t hits(Site site) noexcept;
[[nodiscard]] std::uint64_t fired(Site site) noexcept;

#else  // !TREECODE_FAULT_INJECT — every call compiles to nothing.

inline constexpr bool kEnabled = false;

inline void set_seed(std::uint64_t) noexcept {}
[[nodiscard]] inline std::uint64_t seed() noexcept { return 0; }
inline void arm_nth(Site, std::uint64_t) noexcept {}
inline void arm_every(Site) noexcept {}
inline void arm_random(Site, double) noexcept {}
inline void disarm(Site) noexcept {}
inline void reset() noexcept {}
[[nodiscard]] inline bool fire(Site) noexcept { return false; }
[[nodiscard]] inline std::uint64_t hits(Site) noexcept { return 0; }
[[nodiscard]] inline std::uint64_t fired(Site) noexcept { return 0; }

#endif  // TREECODE_FAULT_INJECT

}  // namespace treecode::fault
