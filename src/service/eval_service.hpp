#pragma once

/// \file eval_service.hpp
/// Long-lived, in-process, multi-tenant evaluation service over
/// EvalSession + PlanCache — the ROADMAP's serving layer.
///
/// A tenant registers a geometry once: the service builds a dedicated
/// EvalSession (tree, Theorem-3 degree table, thread pool, governor) and
/// compiles the tenant's interaction plan into the session's cache. From
/// then on the tenant submits charge vectors; a scheduler coalesces queued
/// requests that share the plan into one **blocked multi-RHS replay**
/// (EvalSession::try_evaluate_batch), which walks the frozen entry stream
/// once per column block instead of once per request. Each coalesced
/// column is bitwise-identical to the single-RHS replay it replaces, so
/// batching is purely a throughput decision — batch composition can never
/// change a tenant's numbers.
///
/// ## Admission control and backpressure
///
/// Every submission is admitted or rejected synchronously, with a typed
/// Expected error — the service boundary never throws:
///   kInvalidArgument  unknown tenant, wrong charge-vector size
///   kNonFinite        non-finite charges (counted against the tenant's
///                     error budget; caught at admission so one tenant's
///                     bad input can never poison a coalesced batch)
///   kRejected         queue at max_queue_depth (deterministic
///                     backpressure), tenant quarantined (error budget
///                     exhausted), or tenant shutting down
/// Memory quotas ride on each tenant session's ResourceGovernor
/// (EvalConfig::memory_budget_bytes): a tenant over budget degrades or
/// fails *inside its own session* without touching its neighbours.
///
/// Every rejection and error increments both the aggregate service.*
/// counters and the per-tenant `service.<counter>.<tenant>` fan-out
/// series, and every entry point emits one telemetry RequestRecord
/// (Api::kServiceRegister/kServiceSubmit/kServiceUnregister), so the SLO
/// watchdog can hold per-tenant objectives (see slo_rules()).
///
/// ## Threading model
///
/// Public entry points are safe to call from any thread. With
/// Options::start_scheduler (the default) a background scheduler thread
/// drains queues; with it off, the owner drives batches synchronously via
/// pump() — the mode the deterministic tests use. Evaluation runs outside
/// the service mutex (each session parallelizes over its own pool); the
/// mutex only guards tenant-table and queue state.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dist/particle_system.hpp"
#include "engine/eval_session.hpp"
#include "obs/httpd.hpp"
#include "obs/json.hpp"
#include "obs/reqtrace.hpp"
#include "obs/slo.hpp"
#include "util/expected.hpp"

namespace treecode::service {

namespace detail {
/// Shared completion slot behind a Ticket: filled exactly once by the
/// scheduler (or by cancellation), waited on by the submitter.
struct RequestState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::unique_ptr<Expected<EvalResult>> result;
};
}  // namespace detail

/// In-process multi-tenant evaluation service.
class EvalService {
 public:
  /// Per-tenant registration settings.
  struct TenantOptions {
    EvalConfig eval;   ///< treecode settings; memory_budget_bytes = quota
    TreeConfig tree;   ///< octree settings over the tenant's particles
    /// Session tuning (plan cache capacity, basis budgets).
    engine::EvalSession::Options session;
    /// Most columns coalesced into one batched replay (clamped to [1, 8] —
    /// the engine's SoA register block).
    std::size_t max_batch_width = 8;
    /// Queued (admitted, unserved) requests allowed before submissions are
    /// rejected with kRejected — deterministic backpressure.
    std::size_t max_queue_depth = 64;
    /// Failed requests (non-finite submissions, evaluation errors) the
    /// tenant may accumulate before it is quarantined (subsequent submits
    /// rejected with kRejected). 0 = never quarantine.
    std::uint64_t error_budget = 0;
    /// Submit-to-fulfill latency objective in seconds. When > 0: requests
    /// slower than this are tail-kept by the request tracer (reason "slo"),
    /// and slo_rules() adds a p99 objective over the tenant's
    /// `service.<tenant>.request_seconds` histogram. 0 = no objective.
    double latency_slo_seconds = 0.0;
  };

  struct Options {
    /// Run the background scheduler thread. Off = the owner drives
    /// batches with pump() (deterministic, single-threaded scheduling).
    bool start_scheduler = true;
  };

  /// Handle to one admitted request. wait() blocks until the scheduler
  /// serves, fails, or cancels it, and returns the typed result exactly
  /// once (second wait on the same ticket yields kInvalidArgument).
  class Ticket {
   public:
    Ticket() = default;
    [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
    /// Block until completion; moves the result out.
    [[nodiscard]] Expected<EvalResult> wait();

   private:
    friend class EvalService;
    explicit Ticket(std::shared_ptr<detail::RequestState> state)
        : state_(std::move(state)) {}
    std::shared_ptr<detail::RequestState> state_;
  };

  EvalService() : EvalService(Options{}) {}
  explicit EvalService(const Options& options);
  /// Stops the scheduler, cancels every queued request (kCancelled), and
  /// tears down all tenant sessions.
  ~EvalService();
  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  /// Register `name` (lower-case [a-z0-9_-], unique): builds the tenant's
  /// session over `particles` and compiles its plan for `targets`
  /// (empty targets = the tenant's own particles, self-evaluation plan;
  /// results then come back in the particle order of `particles`).
  /// Errors: kInvalidArgument (bad name, duplicate, invalid config or
  /// geometry), kMemoryBudget/kFaultInjected if the plan cannot be
  /// afforded under the tenant's quota.
  [[nodiscard]] Expected<void> try_register_tenant(const std::string& name,
                                                   ParticleSystem particles,
                                                   std::vector<Vec3> targets,
                                                   const TenantOptions& options);

  /// Admit one charge vector (tenant's original particle order). Returns a
  /// Ticket immediately; the evaluation happens when the scheduler (or
  /// pump()) coalesces the queue into a batch. See the file comment for
  /// the admission taxonomy.
  [[nodiscard]] Expected<Ticket> try_submit(const std::string& name,
                                            std::span<const double> charges);

  /// Remove a tenant: waits for its in-flight batch, completes every
  /// queued request with kCancelled, and destroys its session — releasing
  /// its governor reservations and withdrawing its plan/basis bytes from
  /// the engine.plan_bytes / engine.basis_bytes gauges in the same step.
  [[nodiscard]] Expected<void> try_unregister_tenant(const std::string& name);

  /// Drive one scheduler round synchronously: pick the next tenant
  /// (round-robin), coalesce up to max_batch_width queued requests, run
  /// the batched replay, fulfill the tickets. Returns the number of
  /// requests completed (0 = nothing ready). Safe alongside the
  /// background scheduler, though normally one or the other drives.
  std::size_t pump();

  /// Tenants currently registered.
  [[nodiscard]] std::size_t num_tenants() const;

  /// Service state as a `treecode-service/v1` document: scheduler status
  /// and one block per tenant (queue depth, busy/quarantined flags,
  /// request accounting, batch occupancy, plan key/bytes, governor
  /// ledger). What `treecode-inspect --service` prints.
  [[nodiscard]] obs::Json state_json() const;

  /// Per-tenant SLO objectives over the fan-out counters — for each
  /// registered tenant: rejected share and error share of its submissions
  /// (counter ratios), plus the aggregate service error rate, plus a p99
  /// latency objective for tenants with latency_slo_seconds > 0.
  [[nodiscard]] std::vector<obs::slo::Rule> slo_rules() const;

  /// Start the live observability endpoint on 127.0.0.1:`port` (0 =
  /// ephemeral): GET /metrics (OpenMetrics), /healthz (engine + service
  /// SLO status, 503 on breach), /state (state_json document), /traces?n=K
  /// (retained request traces as treecode-trace/v1 JSONL). Returns the
  /// bound port. Not a try_* entry point: serving scrapes is control
  /// plane, not request flow, so it emits no telemetry record.
  [[nodiscard]] Expected<std::uint16_t> start_http(std::uint16_t port);

  /// Stop the observability endpoint. Idempotent; also run by ~EvalService
  /// before teardown (handlers read service state).
  void stop_http();

  /// Bound endpoint port (0 = not running).
  [[nodiscard]] std::uint16_t http_port() const noexcept;

 private:
  struct Request {
    std::vector<double> charges;
    std::shared_ptr<detail::RequestState> state;
    obs::reqtrace::TraceContext trace;  ///< minted at try_submit admission
    std::int64_t submit_ns = 0;   ///< reqtrace clock at submit entry
    std::int64_t enqueue_ns = 0;  ///< reqtrace clock at queue push
    /// Wall clock at admission, for latency/queue-wait metrics (valid even
    /// when tracing is compiled out).
    std::chrono::steady_clock::time_point submitted_at;
  };

  struct Tenant {
    TenantOptions options;
    std::unique_ptr<engine::EvalSession> session;
    std::shared_ptr<const engine::EvalPlan> plan;
    std::deque<Request> queue;
    bool busy = false;       ///< a batch is evaluating outside the lock
    bool closing = false;    ///< unregister in progress: reject new work
    bool quarantined = false;
    std::size_t source_size = 0;  ///< expected charge-vector length
    std::uint64_t submitted = 0;
    std::uint64_t served = 0;
    std::uint64_t rejected = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t errors = 0;
    std::uint64_t batches = 0;
    std::uint64_t batch_columns = 0;
    std::size_t max_batch_seen = 0;
  };

  Expected<void> try_register_tenant_impl(const std::string& name,
                                          ParticleSystem particles,
                                          std::vector<Vec3> targets,
                                          const TenantOptions& options);
  Expected<Ticket> try_submit_impl(const std::string& name,
                                   std::span<const double> charges,
                                   obs::reqtrace::RequestScope& rscope);
  Expected<void> try_unregister_tenant_impl(const std::string& name);
  /// Complete `pending` with kCancelled (`message`), finishing each
  /// request's trace with an error verdict so cancellations are tail-kept.
  void cancel_pending(std::vector<Request>& pending, const char* message);
  /// One coalesce-evaluate-fulfill round; the body behind pump() and the
  /// scheduler thread.
  std::size_t run_round();
  /// Round-robin pick of the next tenant with ready work. Caller holds mu_.
  Tenant* pick_next_locked(std::string& name_out);
  /// True when some tenant has ready work. Caller holds mu_.
  [[nodiscard]] bool any_ready_locked() const;
  void scheduler_main();

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< submissions -> scheduler
  std::condition_variable idle_cv_;  ///< batch completion -> unregister
  std::map<std::string, Tenant> tenants_;
  std::string rr_cursor_;  ///< name of the last tenant served
  std::uint64_t rounds_ = 0;
  bool stop_ = false;
  std::thread scheduler_;
  std::unique_ptr<obs::httpd::Server> http_;
};

}  // namespace treecode::service
