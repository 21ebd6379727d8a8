#pragma once

/// \file metrics.hpp
/// Process-wide metrics registry: named counters, gauges, histograms, and
/// series with near-zero-overhead concurrent recording.
///
/// The paper's whole argument is quantitative — serial cost in multipole
/// terms (p+1)^2, per-thread work for the speedup model, a-posteriori error
/// bounds — so the evaluators need a place to record degree distributions,
/// per-level interaction counts, budget-refinement causes, and GMRES
/// residual trajectories without perturbing the hot loops they measure.
///
/// Design:
///  * Counters and histograms are sharded: each records into one of
///    kMetricShards cache-line-padded atomic slots selected by a stable
///    per-thread index, so concurrent recording never contends on a single
///    cache line. Relaxed atomic adds make aggregation *exact* (tested
///    under TSan via scripts/sanitize.sh), not sampled.
///  * Lookup by name takes a mutex; hot paths resolve their metrics once
///    (outside the loop, or batch per-thread totals into locals and flush
///    after the parallel region — the pattern the evaluators use).
///  * The registry is append-only: a metric, once registered, lives for the
///    process lifetime, so references returned by counter()/histogram()/...
///    stay valid forever. reset_values() zeroes values but keeps
///    registrations.
///
/// Metric naming convention (documented in README "Observability"):
/// dot-separated `<subsystem>.<quantity>[_<unit>]`, e.g. `bh.m2p_count`,
/// `time.bh_p2m_ns`, `gmres.residual`.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace treecode::obs {

/// Number of independent accumulation slots per sharded metric. Power of
/// two; threads map onto slots by a stable per-thread counter, so up to
/// kMetricShards threads record with zero cache-line sharing.
inline constexpr unsigned kMetricShards = 64;

/// Stable small id for the calling thread (assigned on first use,
/// monotonically increasing across the process).
unsigned thread_index() noexcept;

namespace detail {
/// One cache line per shard so concurrent add() never false-shares.
struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> v{0};
};
struct alignas(64) PaddedF64 {
  std::atomic<double> v{0.0};
};
}  // namespace detail

/// Monotonic sharded counter (u64). Exact under concurrency.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept {
    shards_[thread_index() & (kMetricShards - 1)].v.fetch_add(delta,
                                                              std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }

  /// Sum over all shards.
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t s = 0;
    for (const auto& shard : shards_) s += shard.v.load(std::memory_order_relaxed);
    return s;
  }

  void reset() noexcept {
    for (auto& shard : shards_) shard.v.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::PaddedU64, kMetricShards> shards_{};
};

/// Last-written double value plus running max — enough for "largest
/// Theorem-2 bound seen" style quantities. set()/record_max() are atomic but
/// the gauge is not sharded: gauges are written at phase granularity.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void record_max(double v) noexcept {
    double cur = max_.load(std::memory_order_relaxed);
    while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double max() const noexcept { return max_.load(std::memory_order_relaxed); }
  void reset() noexcept {
    value_.store(0.0, std::memory_order_relaxed);
    max_.store(0.0, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<double> max_{0.0};
};

/// Aggregated view of one histogram.
struct HistogramSnapshot {
  /// Inclusive upper bound of bucket i; the final bucket (counts.back())
  /// catches everything above bounds.back().
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 entries
  std::uint64_t total = 0;
  double sum = 0.0;
};

/// Fixed-boundary histogram with per-thread sharded bucket counts.
/// Boundaries are inclusive upper bounds; values above the last boundary
/// land in an implicit overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept { observe_n(v, 1); }
  /// Record `n` observations of value `v` at once — the batched flush the
  /// evaluators use after a parallel region.
  void observe_n(double v, std::uint64_t n) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  [[nodiscard]] HistogramSnapshot snapshot() const;
  void reset() noexcept;

 private:
  [[nodiscard]] std::size_t bucket_of(double v) const noexcept;

  std::vector<double> bounds_;
  std::size_t num_buckets_ = 0;  ///< bounds_.size() + 1 (overflow bucket)
  std::size_t stride_ = 0;       ///< num_buckets_ rounded up to a cache line
  /// counts_[shard * stride_ + bucket]; the shard stride keeps each
  /// thread's buckets on its own cache lines.
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::array<detail::PaddedF64, kMetricShards> sums_{};  ///< per-shard value sums
};

/// Append-only ordered sequence of doubles (e.g. a GMRES residual
/// trajectory). Mutex-protected: appends happen at iteration granularity,
/// never in kernel hot loops.
class Series {
 public:
  void append(double v);
  [[nodiscard]] std::vector<double> values() const;
  void reset();

 private:
  mutable std::mutex mutex_;
  std::vector<double> values_;
};

/// Everything the registry knows, aggregated — the report emitter's input.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, double> gauge_maxima;
  std::map<std::string, HistogramSnapshot> histograms;
  std::map<std::string, std::vector<double>> series;
};

/// Named-metric registry. All accessors register on first use and return
/// references that stay valid for the process lifetime.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `upper_bounds` is consulted only on first registration; later calls
  /// with the same name return the existing histogram unchanged.
  Histogram& histogram(std::string_view name, std::span<const double> upper_bounds);
  Series& series(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Zero every value; registrations (and histogram boundaries) survive.
  void reset_values();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<Series>, std::less<>> series_;
};

/// The process-global registry every subsystem records into.
Registry& registry() noexcept;

/// Boundaries {0, 1, ..., max_value}: bucket i counts integer value i
/// exactly (used for multipole degrees and tree levels).
std::vector<double> integer_buckets(int max_value);

/// Boundaries start, start*factor, ... (n of them) — decades/octaves for
/// wide-range quantities.
std::vector<double> exponential_buckets(double start, double factor, int n);

}  // namespace treecode::obs
