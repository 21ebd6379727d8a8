#pragma once

/// \file resource_governor.hpp
/// Session-wide resource governance: byte accounting with a hard budget,
/// plus an armable evaluation deadline.
///
/// The bem-solve benchmark governs 8,098 B per source: about 288 MB of plan,
/// basis and coefficients for only 35,568 sources (298 MB peak RSS). An
/// unguarded compile in a memory-constrained deployment does not fail
/// gracefully, it gets OOM-killed. The governor
/// turns "hope the allocator succeeds" into an explicit protocol: every
/// durable engine allocation (plan storage, evaluation bases, multipole
/// coefficients) first reserves its bytes here, and a denial surfaces as a
/// typed kMemoryBudget error that the degradation ladder (eval_session.hpp)
/// converts into a cheaper serving strategy instead of a dead process.
///
/// Accounting covers *durable* session footprint — storage that lives past
/// the call that allocates it. Transient compile scratch (per-target entry
/// vectors before the flatten) is of the same order as the plan itself and
/// is documented headroom, not tracked.
///
/// Determinism contract: reservation outcomes depend only on the byte
/// ledger and the (serial) reservation order — never on wall time or thread
/// scheduling — so every degradation decision derived from them is
/// bitwise-identical across thread counts, matching the TSan stress-suite
/// guarantee. The fault harness (fault_inject.hpp, site kEngineAlloc)
/// shares the reservation ordinal stream, which is what makes "fail the Nth
/// engine allocation" a meaningful, replayable instruction.
///
/// The deadline is the one wall-clock element: arm_deadline() stamps an
/// expiry; workers poll deadline_expired() between blocks (cooperative, via
/// CancellationToken). Deadline outcomes are *reported* deterministically
/// (kDeadline) but which block observes the expiry first is inherently
/// timing-dependent — which is why the ladder never chooses a rung based on
/// the deadline, only on the ledger.
///
/// Thread safety: reserve/release use relaxed atomics and may be called
/// from any thread; the ledger is exact. Arming (budget, deadline) is a
/// serial-phase operation by the owning session.

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace treecode {

/// Byte-budget ledger + cooperative deadline for one engine session.
class ResourceGovernor {
 public:
  ResourceGovernor() = default;
  explicit ResourceGovernor(std::size_t budget_bytes) : budget_(budget_bytes) {}

  /// 0 = unlimited (every reservation succeeds; the ledger still counts).
  void set_budget(std::size_t bytes) noexcept {
    budget_.store(bytes, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t budget() const noexcept {
    return budget_.load(std::memory_order_relaxed);
  }
  /// Governing at all? (budget set). Disabled governors cost two relaxed
  /// loads per reservation and nothing per replay block.
  [[nodiscard]] bool enabled() const noexcept { return budget() != 0; }

  [[nodiscard]] std::size_t used() const noexcept {
    return used_.load(std::memory_order_relaxed);
  }
  /// Bytes still reservable; SIZE_MAX when unlimited.
  [[nodiscard]] std::size_t remaining() const noexcept;

  /// Reserve `bytes` against the budget. False when the reservation would
  /// exceed it — or when fault site kEngineAlloc fires at this ordinal
  /// (then last_denial() reports kFaultInjected instead of kMemoryBudget).
  /// Counts one reservation ordinal either way. `label` names the
  /// allocation in the flight-recorder event a denial drops.
  [[nodiscard]] bool try_reserve(std::size_t bytes, const char* label) noexcept;

  /// Would try_reserve(bytes) succeed right now? No ledger change, no
  /// ordinal consumed, no fault-site hit — a pure pre-flight check.
  [[nodiscard]] bool can_reserve(std::size_t bytes) const noexcept;

  /// Return bytes to the ledger (clamped at zero against release-without-
  /// reserve bugs rather than wrapping).
  void release(std::size_t bytes) noexcept;

  /// RAII ownership of one reservation. The static analyzer
  /// (scripts/analyze, rule governor-raii) flags raw try_reserve/release
  /// pairs outside this file: between a manual reserve and its release,
  /// any throw leaks the bytes from the ledger for the session's lifetime.
  /// A Reservation returns them from whatever scope unwinds it.
  ///
  /// Move-only. An empty guard (default-constructed, denied, moved-from,
  /// or released) is falsy and owns nothing. `absorb()` merges another
  /// guard's bytes into this one for durable storage that grows in steps
  /// (the p2m basis pool) but is returned as one block.
  class [[nodiscard]] Reservation {
   public:
    Reservation() = default;
    Reservation(Reservation&& other) noexcept
        : governor_(other.governor_), bytes_(other.bytes_) {
      other.governor_ = nullptr;
      other.bytes_ = 0;
    }
    Reservation& operator=(Reservation&& other) noexcept {
      if (this != &other) {
        release();
        governor_ = other.governor_;
        bytes_ = other.bytes_;
        other.governor_ = nullptr;
        other.bytes_ = 0;
      }
      return *this;
    }
    Reservation(const Reservation&) = delete;
    Reservation& operator=(const Reservation&) = delete;
    ~Reservation() { release(); }

    /// Held bytes (0 when empty).
    [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }
    /// Holding a successful reservation?
    explicit operator bool() const noexcept { return governor_ != nullptr; }

    /// Return the bytes to the ledger now (idempotent).
    void release() noexcept {
      if (governor_ != nullptr) {
        governor_->release(bytes_);
        governor_ = nullptr;
        bytes_ = 0;
      }
    }

    /// Take over `other`'s bytes, merging into this guard. Both must be
    /// against the same governor (or either may be empty).
    void absorb(Reservation&& other) noexcept {
      if (!other) {
        return;
      }
      if (governor_ == nullptr) {
        *this = static_cast<Reservation&&>(other);
        return;
      }
      bytes_ += other.bytes_;
      other.governor_ = nullptr;
      other.bytes_ = 0;
    }

   private:
    friend class ResourceGovernor;
    Reservation(ResourceGovernor* governor, std::size_t bytes) noexcept
        : governor_(governor), bytes_(bytes) {}

    ResourceGovernor* governor_ = nullptr;
    std::size_t bytes_ = 0;
  };

  /// try_reserve with RAII ownership: empty guard on denial (same ordinal
  /// accounting and fault-site semantics), owning guard on success.
  [[nodiscard]] Reservation reserve(std::size_t bytes,
                                    const char* label) noexcept {
    if (!try_reserve(bytes, label)) {
      return Reservation{};
    }
    return Reservation{this, bytes};
  }

  /// True when the last denial came from the fault harness, not the budget.
  [[nodiscard]] bool last_denial_was_fault() const noexcept {
    return last_denial_fault_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t reservations() const noexcept {
    return reservations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t denials() const noexcept {
    return denials_.load(std::memory_order_relaxed);
  }

  /// Arm a deadline `seconds` from now (<= 0 disarms). Serial-phase only.
  void arm_deadline(double seconds) noexcept;
  void disarm_deadline() noexcept { deadline_ns_.store(0, std::memory_order_relaxed); }
  [[nodiscard]] bool deadline_armed() const noexcept {
    return deadline_ns_.load(std::memory_order_relaxed) != 0;
  }
  /// Cooperative poll: has the armed deadline passed? Safe from workers.
  [[nodiscard]] bool deadline_expired() const noexcept;

  /// One consistent-enough read of the whole ledger — what introspection
  /// snapshots (engine/introspect.hpp, treecode-inspect) report. Each field
  /// is an independent relaxed load; the ledger may move between them, which
  /// is fine for a diagnostic view.
  struct Snapshot {
    std::size_t budget = 0;
    std::size_t used = 0;
    std::size_t remaining = 0;
    std::uint64_t reservations = 0;
    std::uint64_t denials = 0;
    bool enabled = false;
    bool deadline_armed = false;
  };
  [[nodiscard]] Snapshot snapshot() const noexcept {
    Snapshot s;
    s.budget = budget();
    s.used = used();
    s.remaining = remaining();
    s.reservations = reservations();
    s.denials = denials();
    s.enabled = enabled();
    s.deadline_armed = deadline_armed();
    return s;
  }

 private:
  std::atomic<std::size_t> budget_{0};
  std::atomic<std::size_t> used_{0};
  std::atomic<std::uint64_t> reservations_{0};
  std::atomic<std::uint64_t> denials_{0};
  std::atomic<bool> last_denial_fault_{false};
  /// steady_clock expiry in ns since epoch; 0 = disarmed.
  std::atomic<std::int64_t> deadline_ns_{0};
};

}  // namespace treecode
