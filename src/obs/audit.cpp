#include "obs/audit.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/reqtrace.hpp"
#include "obs/spans.hpp"
#include "util/timer.hpp"

namespace treecode::obs::audit {

namespace {

/// splitmix64 finalizer: a full-avalanche 64-bit mix, so consecutive
/// (target, ordinal) counters map to effectively independent uniform keys.
inline std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Tightness histogram buckets: 1e-9 .. 1e2 by decades. Ratios land well
/// below 1 for healthy bounds; the >1 decades exist so violations are
/// visible in the distribution, not only in the violation counter.
const std::vector<double>& tightness_buckets() {
  static const std::vector<double> buckets = exponential_buckets(1e-9, 10.0, 12);
  return buckets;
}

/// Decade of the cluster charge magnitude, clamped to [-8, 8] so the
/// per-charge-magnitude histogram family stays bounded.
int charge_decade(double abs_charge) noexcept {
  if (!(abs_charge > 0.0)) return -8;
  const double d = std::floor(std::log10(abs_charge));
  return static_cast<int>(std::clamp(d, -8.0, 8.0));
}

}  // namespace

std::uint64_t sample_key(std::uint64_t seed, std::uint64_t target,
                         std::uint64_t ordinal) noexcept {
  // Chain the mixer over the three inputs; mixing the previous digest into
  // the next counter keeps (target=2, ordinal=3) and (target=3, ordinal=2)
  // uncorrelated.
  return mix64(mix64(mix64(seed) ^ target) ^ ordinal);
}

void Reservoir::set_capacity(std::size_t k) {
  k_ = k;
  heap_.clear();
  heap_.reserve(k);
}

void Reservoir::offer(const Sample& s) {
  if (k_ == 0) return;
  if (heap_.size() < k_) {
    heap_.push_back(s);
    std::push_heap(heap_.begin(), heap_.end(), sample_less);
    return;
  }
  if (!sample_less(s, heap_.front())) return;  // not among the K smallest
  std::pop_heap(heap_.begin(), heap_.end(), sample_less);
  heap_.back() = s;
  std::push_heap(heap_.begin(), heap_.end(), sample_less);
}

std::vector<Sample> merge(std::span<const Reservoir> reservoirs, std::size_t k) {
  std::vector<Sample> all;
  for (const Reservoir& r : reservoirs) {
    all.insert(all.end(), r.samples().begin(), r.samples().end());
  }
  std::sort(all.begin(), all.end(), sample_less);
  if (all.size() > k) all.resize(k);
  return all;
}

Summary finalize(std::span<const Sample> winners,
                 const std::function<double(const Sample&)>& exact_of) {
  Summary summary;
  if (winners.empty()) return summary;
  const ScopedTimer phase(span::kAuditFinalize);

  Registry& reg = registry();
  Histogram& tightness_all = reg.histogram(metric::kAuditTightness, tightness_buckets());
  double mean_sum = 0.0;
  std::uint64_t finite_count = 0;

  for (const Sample& s : winners) {
    const double exact = exact_of(s);
    const double observed = std::abs(s.approx - exact);
    const double noise_floor = kNoiseRelEps * s.noise_scale;
    double ratio;
    bool violation = false;
    if (observed <= noise_floor) {
      // Truncation error is unresolvable beneath the rounding of the two
      // summations (typical for point-like clusters, whose bound is ~0 but
      // whose approx/exact paths still differ by ~eps * |phi|).
      ratio = 0.0;
    } else if (s.bound > 0.0) {
      ratio = observed / s.bound;
      violation = ratio > 1.0;
    } else {
      // Zero bound claims zero truncation error; an observed error above
      // the rounding floor is a violation with no finite ratio to report.
      ratio = std::numeric_limits<double>::infinity();
      violation = true;
    }

    tightness_all.observe(ratio);
    char name[48];
    std::snprintf(name, sizeof(name), "audit.tightness.L%d", s.level);
    reg.histogram(name, tightness_buckets()).observe(ratio);
    std::snprintf(name, sizeof(name), "audit.tightness.p%d", s.degree);
    reg.histogram(name, tightness_buckets()).observe(ratio);
    std::snprintf(name, sizeof(name), "audit.tightness.q%d", charge_decade(s.abs_charge));
    reg.histogram(name, tightness_buckets()).observe(ratio);

    ++summary.samples;
    if (violation) {
      ++summary.bound_violations;
      reqtrace::record_event(span::kAuditBoundViolation, ratio);
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "audit: Theorem-1 bound violated at target %llu node %lld "
                    "(observed %.3g, bound %.3g)",
                    static_cast<unsigned long long>(s.target),
                    static_cast<long long>(s.node), observed, s.bound);
      warn(msg);
    }
    if (std::isfinite(ratio)) {
      summary.max_tightness = std::max(summary.max_tightness, ratio);
      mean_sum += ratio;
      ++finite_count;
    }
  }
  if (finite_count > 0) {
    summary.mean_tightness = mean_sum / static_cast<double>(finite_count);
  }

  reg.counter(metric::kAuditSamples).add(summary.samples);
  reg.counter(metric::kAuditBoundViolations).add(summary.bound_violations);
  reg.gauge(metric::kAuditMaxTightness).record_max(summary.max_tightness);
  reqtrace::record_event(span::kAuditFinalizeEvent, static_cast<double>(summary.samples));
  return summary;
}

}  // namespace treecode::obs::audit
