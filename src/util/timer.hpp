#pragma once

/// \file timer.hpp
/// Wall-clock timing helpers for benchmarks and the parallel speedup model.

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/reqtrace.hpp"

namespace treecode {

/// A simple monotonic stopwatch. Starts running on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed since construction or the last reset().
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Time a callable and return the elapsed seconds.
template <typename F>
double time_seconds(F&& f) {
  Timer t;
  f();
  return t.seconds();
}

/// RAII phase timer wired into the observability layer: on destruction it
/// accumulates the elapsed nanoseconds into the obs counter
/// `<metric>_ns`, records one span named `metric` when tracing is active
/// (a phase of the calling thread's request trace when one is installed —
/// this is how engine replay phases appear inside service batch traces —
/// and a timeline span otherwise), and optionally stores the elapsed
/// seconds for callers that keep their own bookkeeping (the evaluators'
/// build/eval seconds). `metric` must be a string literal or otherwise
/// outlive the timer.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* metric, double* out_seconds = nullptr) noexcept
      : metric_(metric), out_(out_seconds), span_(metric) {}

  ~ScopedTimer() {
    const double s = timer_.seconds();
    if (out_ != nullptr) *out_ = s;
    obs::registry()
        .counter(std::string(metric_) + "_ns")
        .add(static_cast<std::uint64_t>(s * 1e9));
    obs::recorder::record(obs::recorder::Category::kPhase, metric_, s);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Seconds elapsed so far (the phase is still running).
  [[nodiscard]] double seconds() const { return timer_.seconds(); }

 private:
  Timer timer_;
  const char* metric_;
  double* out_;
  obs::reqtrace::PhaseSpan span_;
};

}  // namespace treecode
