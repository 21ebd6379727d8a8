#pragma once

/// \file plan_cache.hpp
/// LRU cache of compiled EvalPlans, keyed by EvalPlan::key.
///
/// A GMRES solve alternates between at most a couple of target sets (the
/// mesh vertices for the matvec, occasionally the particles themselves for
/// diagnostics), so a small LRU suffices to make every apply after the
/// first a pure replay. Keys are hashes; because a 64-bit hash can collide,
/// `find` verifies full target equality (bytewise, so NaN-bearing sanitized
/// target sets still match themselves) before returning a hit — a
/// collision is treated as a miss and recompiled, never served wrong.
///
/// The cache is the ledger of the session's *durable plan footprint*:
/// it tracks resident bytes (bytes()), evicts by total bytes as well as by
/// count, publishes the total to the `engine.plan_bytes` gauge on every
/// mutation, and holds each resident
/// plan's ResourceGovernor::Reservation alongside the plan itself —
/// eviction, replacement, clear, or cache destruction returns the bytes to
/// the budget through the guard's destructor, so no path (including an
/// exceptional one) can strand them. A caller still holding a shared_ptr
/// to an evicted plan keeps the memory alive past its accounting; that
/// window is transient (the duration of one evaluate) and documented
/// rather than tracked.
///
/// Under TREECODE_FAULT_INJECT, fault site kCacheVerifyMiss can discard a
/// verified hit — the caller sees a miss and recompiles, exercising the
/// recompile-under-pressure path deterministically.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>

#include "engine/eval_plan.hpp"
#include "util/resource_governor.hpp"

namespace treecode::engine {

/// Fixed-capacity least-recently-used plan store with byte accounting.
/// Thread-safe: every operation (including the accessors) takes the cache
/// mutex, so concurrent find/insert/clear — e.g. a diagnostics thread
/// clearing while a serve thread compiles — stay well-defined. The owning
/// EvalSession still serializes its own compile/evaluate sequence.
class PlanCache {
 public:
  /// `capacity` is clamped to at least 1 (a zero-capacity cache would turn
  /// every warm apply back into a cold compile, silently).
  /// `byte_capacity` bounds the *total resident plan bytes*; 0 = unbounded.
  explicit PlanCache(std::size_t capacity = 8, std::size_t byte_capacity = 0);

  /// Releases every resident plan's reservation and withdraws this cache's
  /// contribution from the process-wide engine.plan_bytes gauge — a
  /// destroyed session (an unregistered tenant) must not leave its bytes
  /// on the shared series.
  ~PlanCache();
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Look up `key`; on a hash hit, verify the stored plan was compiled for
  /// exactly these targets (and the same self flag) before returning it.
  /// A verified hit moves the plan to most-recently-used.
  [[nodiscard]] std::shared_ptr<const EvalPlan> find(std::uint64_t key,
                                                     std::span<const Vec3> targets,
                                                     bool self);

  /// Insert a freshly compiled plan under plan->key together with the
  /// governor reservation backing its bytes, evicting LRU plans while over
  /// the count or byte capacity. Replaces any existing plan with the same
  /// key (the replaced plan's reservation is released). Returns false when
  /// the plan alone exceeds the byte capacity and was not retained — its
  /// reservation is released immediately; the caller's shared_ptr stays
  /// usable but the plan is transient.
  bool insert(std::shared_ptr<const EvalPlan> plan,
              ResourceGovernor::Reservation reservation);
  /// Insert without a reservation (ungoverned sessions and unit tests).
  bool insert(std::shared_ptr<const EvalPlan> plan) {
    return insert(std::move(plan), ResourceGovernor::Reservation{});
  }

  void clear();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const;
  [[nodiscard]] std::size_t byte_capacity() const;
  /// Total memory_bytes() of resident plans.
  [[nodiscard]] std::size_t bytes() const;
  /// Always 0 (plans hold no basis); kept for bench/suite/probes.cpp.
  [[nodiscard]] std::size_t basis_bytes() const { return 0; }
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t evictions() const;

  /// One resident plan's accounting — what introspection snapshots
  /// (engine/introspect.hpp, treecode-inspect) report per cached plan.
  struct PlanInfo {
    std::uint64_t key = 0;
    bool self = false;
    std::size_t num_targets = 0;
    std::size_t num_entries = 0;
    std::size_t bytes = 0;  ///< EvalPlan::memory_bytes()
  };
  /// Snapshot of every resident plan, most-recently-used first.
  [[nodiscard]] std::vector<PlanInfo> contents() const;

 private:
  /// One resident plan plus the budget reservation that backs it; the
  /// reservation releases itself whenever the entry leaves the list.
  struct Entry {
    std::shared_ptr<const EvalPlan> plan;
    ResourceGovernor::Reservation reservation;
  };

  /// Pop the LRU plan (releasing its reservation), update the ledgers.
  /// Caller holds mu_.
  void evict_lru_locked();
  /// Push this cache's resident-byte delta into the process-wide total and
  /// set the engine.plan_bytes gauge from the aggregate (value, not max —
  /// compile keeps the per-plan peak separately). Every mutation and the
  /// destructor go through here, so the gauge always sums the bytes of the
  /// caches that are actually alive.
  void publish_gauges_locked();

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::size_t byte_capacity_;
  std::size_t bytes_ = 0;
  /// What this cache last contributed to the process-wide gauge total;
  /// publish_gauges_locked() applies bytes_ - published_bytes_ as a delta.
  std::size_t published_bytes_ = 0;
  /// Most-recently-used at the front.
  std::list<Entry> plans_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> by_key_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace treecode::engine
