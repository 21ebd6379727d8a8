#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace treecode::obs {

unsigned thread_index() noexcept {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// ---- Histogram -------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds) : bounds_(std::move(upper_bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  num_buckets_ = bounds_.size() + 1;
  // Round the per-shard stride up to a whole cache line of counters so two
  // shards never split a line.
  constexpr std::size_t kLine = 64 / sizeof(std::uint64_t);
  stride_ = (num_buckets_ + kLine - 1) / kLine * kLine;
  counts_ = std::vector<std::atomic<std::uint64_t>>(stride_ * kMetricShards);
}

std::size_t Histogram::bucket_of(double v) const noexcept {
  // First bound >= v; NaN falls through every comparison into overflow.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  return static_cast<std::size_t>(it - bounds_.begin());
}

void Histogram::observe_n(double v, std::uint64_t n) noexcept {
  if (n == 0) return;
  const unsigned shard = thread_index() & (kMetricShards - 1);
  counts_[shard * stride_ + bucket_of(v)].fetch_add(n, std::memory_order_relaxed);
  sums_[shard].v.fetch_add(v * static_cast<double>(n), std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.bounds = bounds_;
  s.counts.assign(num_buckets_, 0);
  for (unsigned shard = 0; shard < kMetricShards; ++shard) {
    for (std::size_t b = 0; b < num_buckets_; ++b) {
      s.counts[b] += counts_[shard * stride_ + b].load(std::memory_order_relaxed);
    }
    s.sum += sums_[shard].v.load(std::memory_order_relaxed);
  }
  for (const std::uint64_t c : s.counts) s.total += c;
  return s;
}

void Histogram::reset() noexcept {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  for (auto& sum : sums_) sum.v.store(0.0, std::memory_order_relaxed);
}

// ---- Series ----------------------------------------------------------------

void Series::append(double v) {
  std::lock_guard lock(mutex_);
  values_.push_back(v);
}

std::vector<double> Series::values() const {
  std::lock_guard lock(mutex_);
  return values_;
}

void Series::reset() {
  std::lock_guard lock(mutex_);
  values_.clear();
}

// ---- Registry --------------------------------------------------------------

namespace {

template <typename Map, typename Make>
auto& find_or_make(Map& map, std::mutex& mutex, std::string_view name, Make make) {
  std::lock_guard lock(mutex);
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), make()).first;
  }
  return *it->second;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  return find_or_make(counters_, mutex_, name, [] { return std::make_unique<Counter>(); });
}

Gauge& Registry::gauge(std::string_view name) {
  return find_or_make(gauges_, mutex_, name, [] { return std::make_unique<Gauge>(); });
}

Histogram& Registry::histogram(std::string_view name, std::span<const double> upper_bounds) {
  return find_or_make(histograms_, mutex_, name, [&] {
    return std::make_unique<Histogram>(
        std::vector<double>(upper_bounds.begin(), upper_bounds.end()));
  });
}

Series& Registry::series(std::string_view name) {
  return find_or_make(series_, mutex_, name, [] { return std::make_unique<Series>(); });
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) {
    s.gauges[name] = g->value();
    s.gauge_maxima[name] = g->max();
  }
  for (const auto& [name, h] : histograms_) s.histograms[name] = h->snapshot();
  for (const auto& [name, ser] : series_) s.series[name] = ser->values();
  return s;
}

void Registry::reset_values() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, s] : series_) s->reset();
}

Registry& registry() noexcept {
  static Registry r;
  return r;
}

std::vector<double> integer_buckets(int max_value) {
  std::vector<double> b;
  b.reserve(static_cast<std::size_t>(max_value) + 1);
  for (int i = 0; i <= max_value; ++i) b.push_back(static_cast<double>(i));
  return b;
}

std::vector<double> exponential_buckets(double start, double factor, int n) {
  std::vector<double> b;
  b.reserve(static_cast<std::size_t>(n));
  double v = start;
  for (int i = 0; i < n; ++i, v *= factor) b.push_back(v);
  return b;
}

}  // namespace treecode::obs
