#pragma once

/// \file harness.hpp
/// Shared machinery of treecode_bench: run settings, the report every
/// workload fills, bench-side spans, quantiles, registry deltas, and the
/// generated inputs the workloads share.
///
/// The benchmark drives only public library entry points and times each
/// call from the outside: nothing here reaches into the library's
/// internals. Per-layer numbers come from the bench's own spans, from the
/// existing metrics registry (obs::registry()), and from the public
/// accessors of the objects the bench owns.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "bem/mesh.hpp"
#include "bem/quadrature.hpp"
#include "core/config.hpp"
#include "dist/particle_system.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace treecode::suite {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The time point `seconds` after `from`.
[[nodiscard]] inline Clock::time_point after(Clock::time_point from, double seconds) {
  return from + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// One invocation's settings (see main.cpp for the command line).
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< length of the timed phase
  bool traced = false;    ///< record spans and run the per-layer probes
  bool smoke = false;     ///< test-sized inputs
  std::string json_out;
};

/// Worker threads every workload evaluates with.
inline constexpr unsigned kThreads = 4;

/// The paper's operating point, shared by every workload: alpha 0.5, base
/// degree 4, Theorem-3 adaptive degrees.
[[nodiscard]] EvalConfig eval_config();

/// splitmix64 of (seed, stream): independent sub-seeds from the run seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Seed of the fixed shapes: the bh-cold instances, the cloud tenant, the
/// plan-churn target sets and the service-open arrival times, like the
/// propeller mesh, are the same in every run. The run seed draws the values
/// (charges, right-hand sides, the plan-churn op stream), so the work an op
/// does barely moves with the seed and run-to-run spread is the host's, not
/// the input's.
inline constexpr std::uint64_t kGeometrySeed = 1;

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// Linear-interpolated quantile q in [0, 1] of `v` (0 when empty).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Relative 2-norm error pooled over several checks:
/// sqrt(sum ||approx - exact||^2 / sum ||exact||^2). Pooling every value a
/// run checks, rather than taking a median over checks, keeps the number
/// steady from seed to seed.
class PooledError {
 public:
  void add(std::span<const double> approx, std::span<const double> exact);
  [[nodiscard]] double value() const;

 private:
  double num_ = 0.0;
  double den_ = 0.0;
};

/// True when both vectors hold exactly the same bits.
[[nodiscard]] bool bitwise_equal(std::span<const double> a, std::span<const double> b);

/// Peak resident set size of this process, in MB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// Everything one run reports. Workloads fill it; main.cpp serializes it.
class Report {
 public:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };

  /// Count one failed operation or check, keeping the first messages.
  void fail(const std::string& why);
  void set_e2e(const std::string& name, double value, const std::string& unit);
  void set_layer(const std::string& name, double value, const std::string& unit);
  /// Record op latencies and set op_p50_s / op_p90_s from them.
  void set_op_latencies(const std::vector<double>& seconds);

  std::uint64_t attempted = 0;  ///< ops of the timed phase
  std::uint64_t failed = 0;     ///< failed ops plus failed checks
  /// False when the load generator ran late (service-open): the run is
  /// not comparable, which is different from incorrect.
  bool valid = true;
  obs::Json details = obs::Json::object();

  [[nodiscard]] const std::map<std::string, Metric>& e2e() const { return e2e_; }
  [[nodiscard]] const std::map<std::string, Metric>& layers() const { return layers_; }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::mutex mu_;  ///< fail() is called from the service waiter threads
  std::vector<std::string> failures_;
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layers_;
};

/// Bench-side spans around the public calls the benchmark makes: name,
/// start, end, parent span and op id. Spans nest per thread; the report
/// keeps only a per-name summary (count, total and self seconds). When
/// disabled every call is a branch, so the untraced run is unperturbed.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  class [[nodiscard]] Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::int64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    std::int64_t op_;
    std::uint64_t id_ = 0;
    Scope* parent_ = nullptr;
    double child_seconds_ = 0.0;
    Clock::time_point start_;
  };

  /// Open a span; it closes when the returned scope dies.
  Scope span(const char* name, std::int64_t op = -1) {
    return Scope(enabled_ ? this : nullptr, name, op);
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Per-name count, total seconds and self seconds (total minus the time
  /// covered by child spans), largest total first.
  [[nodiscard]] obs::Json summary_json() const;

 private:
  struct Record {
    const char* name;
    double start_s;
    double end_s;
    std::uint64_t id;
    std::uint64_t parent;  ///< 0 = root
    std::int64_t op;
    double self_s;
  };

  bool enabled_;
  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// Registry readouts between two snapshots.
struct RegistryDelta {
  obs::MetricsSnapshot before;
  obs::MetricsSnapshot after;

  [[nodiscard]] double counter(const char* name) const;
  /// Seconds accumulated by a ScopedTimer phase (its `<span>_ns` counter).
  [[nodiscard]] double phase_seconds(const char* span) const;
  /// Quantile of the observations a histogram gained between the snapshots.
  [[nodiscard]] double histogram_quantile(const char* name, double q) const;
};

/// Propeller surface mesh with its Gauss points — the paper's Table-3 BEM
/// geometry (procedural stand-in, see DESIGN.md).
struct Propeller {
  TriangleMesh mesh;
  std::vector<MeshQuadPoint> quad;
};
[[nodiscard]] Propeller make_propeller_mesh(std::size_t elements);

/// Gauss-point particle system of a mesh, weights as charges — the same
/// tree input SingleLayerOperator builds.
[[nodiscard]] ParticleSystem gauss_particles(const std::vector<MeshQuadPoint>& points);

/// `k` seeded charge columns over the particles of `ps`: each particle's
/// charge scaled by a density drawn uniformly from [0.5, 1.5].
[[nodiscard]] std::vector<std::vector<double>> make_columns(const ParticleSystem& ps,
                                                            std::size_t k,
                                                            std::uint64_t seed);

}  // namespace treecode::suite
