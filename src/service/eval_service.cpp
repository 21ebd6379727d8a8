#include "service/eval_service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "engine/introspect.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/openmetrics.hpp"
#include "obs/spans.hpp"
#include "util/timer.hpp"
#include "util/validate.hpp"

namespace treecode::service {

namespace {

/// Per-tenant fan-out series name: `<base>.<tenant>`. Non-literal by
/// construction, so the metric-name-literal lint exemption applies; the
/// base constants live in obs/metric_names.hpp.
std::string tenant_metric(const char* base, const std::string& tenant) {
  return std::string(base) + "." + tenant;
}

/// Per-tenant latency series name: the tenant slots in after the
/// "service." prefix — `service.<tenant>.request_seconds` — so a tenant's
/// latency histograms group as their own OpenMetrics subsystem.
std::string service_tenant_metric(const char* base, const std::string& tenant) {
  constexpr std::string_view prefix = "service.";
  return std::string(prefix) + tenant + "." + (base + prefix.size());
}

std::span<const double> request_seconds_bounds() {
  // Same decades as telemetry.request_seconds: coalesced serves cluster
  // around milliseconds, but queue wait under load pushes the p99 out.
  static const std::vector<double> bounds =
      obs::exponential_buckets(1e-6, 4.0, 16);
  return bounds;
}

std::span<const double> deadline_slack_bounds() {
  // Slack goes negative exactly when the deadline was missed, so the
  // buckets must straddle zero; symmetric coarse decades around it.
  static const std::vector<double> bounds = {-10.0, -1.0, -0.1, -0.01, 0.0,
                                             0.01,  0.1,  1.0,  10.0,  100.0};
  return bounds;
}

/// Construct a service Error, counting it on the aggregate error series.
/// Rejections (backpressure, quarantine) go through service_rejection
/// instead — they are flow control, not failures, and feed a separate
/// counter so SLO error-rate objectives do not fire on load shedding.
Error service_error(ErrorCode code, std::string message) {
  obs::registry().counter(obs::metric::kServiceErrors).add(1);
  return Error{code, std::move(message)};
}

/// Construct the typed backpressure Error, counting the rejection on the
/// aggregate and per-tenant series.
Error service_rejection(const std::string& tenant, std::string message) {
  obs::registry().counter(obs::metric::kServiceRejected).add(1);
  obs::registry()
      .counter(tenant_metric(obs::metric::kServiceRejected, tenant))
      .add(1);
  return Error{ErrorCode::kRejected, std::move(message)};
}

/// Finish a service entry point with its one RequestRecord, mirroring the
/// engine's emit_request contract: service.requests is counted
/// unconditionally (the per-tenant SLO denominators divide by it), the
/// record filled and finished only while the request is traced. A scope
/// released at admission logs the record alone.
void emit_request(const char* api, std::uint64_t plan_key, double wall,
                  const Error* error, obs::reqtrace::RequestScope& scope) {
  obs::registry().counter(obs::metric::kServiceRequests).add(1);
  if (!scope.context().valid()) return;
  const ErrorCode code = error != nullptr ? error->code : ErrorCode::kOk;
  obs::reqtrace::RequestRecord r;
  r.api = api;
  r.plan_key = plan_key;
  r.ok = error == nullptr;
  r.outcome = static_cast<std::uint8_t>(code);
  r.outcome_name = error_code_name(code);
  r.deadline_missed = code == ErrorCode::kDeadline;
  r.wall_seconds = wall;
  scope.finish(r);
}

/// Close an admitted request at fulfillment or cancellation with its one
/// "service_serve" record: log the record, record the root span (submit ->
/// now) and run the tail decision. When the request is kept, `batch` (the
/// trace it rode in) is force-kept too, so the batch's flow link resolves.
/// Not an entry point: it neither counts service.requests nor owns a scope.
void finish_admitted(const obs::reqtrace::TraceContext& trace,
                     std::int64_t submit_ns, obs::reqtrace::RequestRecord r,
                     const obs::reqtrace::TraceContext* batch = nullptr) {
  if (!trace.valid()) return;
  r.api = "service_serve";
  r.trace_hi = trace.trace_hi;
  r.trace_lo = trace.trace_lo;
  // Logged first, so the record's timestamp falls inside the root span.
  obs::reqtrace::log_request(r);
  obs::reqtrace::record_span(trace, obs::span::kServiceRequest,
                             obs::reqtrace::SpanKind::kRequest, submit_ns,
                             obs::reqtrace::now_ns());
  obs::reqtrace::finish_request(trace, r, batch);
}

/// Complete one request exactly once and wake its waiter. Called with no
/// service lock held (the state has its own mutex).
void fulfill(const std::shared_ptr<detail::RequestState>& state,
             Expected<EvalResult> result) {
  {
    const std::lock_guard<std::mutex> lock(state->mu);
    state->result = std::make_unique<Expected<EvalResult>>(std::move(result));
    state->done = true;
  }
  state->cv.notify_all();
}

bool valid_tenant_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9') ||
                    ch == '_' || ch == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

Expected<EvalResult> EvalService::Ticket::wait() {
  if (state_ == nullptr) {
    return Error{ErrorCode::kInvalidArgument, "EvalService: empty ticket"};
  }
  const std::shared_ptr<detail::RequestState> state = std::move(state_);
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->done; });
  std::unique_ptr<Expected<EvalResult>> result = std::move(state->result);
  lock.unlock();
  if (result == nullptr) {
    return Error{ErrorCode::kInvalidArgument,
                 "EvalService: ticket result already taken"};
  }
  return std::move(*result);
}

EvalService::EvalService(const Options& options) : options_(options) {
  if (options_.start_scheduler) {
    scheduler_ = std::thread([this] { scheduler_main(); });
  }
}

EvalService::~EvalService() {
  stop_http();  // handlers read service state; stop them before teardown
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();

  // Cancel everything still queued, then let the tenant map tear the
  // sessions down (each PlanCache withdraws its gauge contribution and
  // returns its reservations).
  std::vector<Request> pending;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, tenant] : tenants_) {
      for (Request& request : tenant.queue) {
        pending.push_back(std::move(request));
      }
      tenant.queue.clear();
    }
  }
  if (!pending.empty()) {
    obs::registry().counter(obs::metric::kServiceCancelled).add(pending.size());
  }
  cancel_pending(pending, "EvalService: service shut down");
}

void EvalService::cancel_pending(std::vector<Request>& pending,
                                 const char* message) {
  const auto now = std::chrono::steady_clock::now();
  for (Request& request : pending) {
    // An error record: every cancelled request's trace is retained.
    obs::reqtrace::RequestRecord r;
    r.ok = false;
    r.outcome = static_cast<std::uint8_t>(ErrorCode::kCancelled);
    r.outcome_name = error_code_name(ErrorCode::kCancelled);
    r.wall_seconds =
        std::chrono::duration<double>(now - request.submitted_at).count();
    finish_admitted(request.trace, request.submit_ns, r);
    fulfill(request.state, Error{ErrorCode::kCancelled, message});
  }
}

Expected<void> EvalService::try_register_tenant(const std::string& name,
                                                ParticleSystem particles,
                                                std::vector<Vec3> targets,
                                                const TenantOptions& options) {
  const Timer timer;
  obs::reqtrace::RequestScope rscope(obs::span::kReqServiceRegister);
  Expected<void> result = try_register_tenant_impl(name, std::move(particles),
                                                   std::move(targets), options);
  std::uint64_t key = 0;
  if (result.ok()) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = tenants_.find(name); it != tenants_.end()) {
      key = it->second.plan->key;
    }
  }
  emit_request("service_register", key, timer.seconds(),
               result.ok() ? nullptr : &result.error(), rscope);
  return result;
}

Expected<void> EvalService::try_register_tenant_impl(const std::string& name,
                                                     ParticleSystem particles,
                                                     std::vector<Vec3> targets,
                                                     const TenantOptions& options) {
  if (!valid_tenant_name(name)) {
    return service_error(ErrorCode::kInvalidArgument,
                         "EvalService: tenant name must be 1-64 chars of [a-z0-9_-]");
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return service_rejection(name, "EvalService: service shutting down");
    }
    if (tenants_.count(name) != 0) {
      return service_error(ErrorCode::kInvalidArgument,
                           "EvalService: tenant '" + name + "' already registered");
    }
  }

  // The expensive part — tree build, degree assignment, plan compile —
  // runs outside the service lock so registration cannot stall serving.
  Tenant tenant;
  tenant.options = options;
  tenant.options.max_batch_width =
      std::clamp<std::size_t>(options.max_batch_width, 1, 8);
  if (tenant.options.max_queue_depth == 0) tenant.options.max_queue_depth = 1;
  try {
    Tree tree(particles, options.tree);
    tenant.session = std::make_unique<engine::EvalSession>(
        std::move(tree), options.eval, options.session);
  } catch (const std::exception& e) {
    // Tree/config validation rejects the registration input; the client's
    // fault, surfaced as the typed code rather than the exception.
    return service_error(ErrorCode::kInvalidArgument,
                         std::string("EvalService: tenant geometry/config rejected: ") +
                             e.what());
  }
  tenant.source_size = tenant.session->tree().source_size();
  Expected<std::shared_ptr<const engine::EvalPlan>> plan =
      targets.empty() ? tenant.session->try_compile_self()
                      : tenant.session->try_compile(targets);
  if (!plan.ok()) {
    return service_error(plan.error().code, plan.error().message);
  }
  tenant.plan = std::move(plan).value();

  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return service_rejection(name, "EvalService: service shutting down");
    }
    const auto [it, inserted] = tenants_.emplace(name, std::move(tenant));
    if (!inserted) {
      return service_error(ErrorCode::kInvalidArgument,
                           "EvalService: tenant '" + name + "' already registered");
    }
    obs::registry()
        .gauge(obs::metric::kServiceTenants)
        .set(static_cast<double>(tenants_.size()));
  }
  return {};
}

Expected<EvalService::Ticket> EvalService::try_submit(
    const std::string& name, std::span<const double> charges) {
  const Timer timer;
  // The root span of the request trace. On admission the impl releases the
  // scope — the request outlives this call, so the scheduler records the
  // root span and runs the tail decision at fulfillment. On rejection the
  // scope finishes here (inside emit_request) with the rejection record;
  // on admission it logs the service_submit record alone.
  obs::reqtrace::RequestScope rscope(obs::span::kServiceRequest);
  Expected<Ticket> result = try_submit_impl(name, charges, rscope);
  emit_request("service_submit", 0, timer.seconds(),
               result.ok() ? nullptr : &result.error(), rscope);
  return result;
}

Expected<EvalService::Ticket> EvalService::try_submit_impl(
    const std::string& name, std::span<const double> charges,
    obs::reqtrace::RequestScope& rscope) {
  std::shared_ptr<detail::RequestState> state;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = tenants_.find(name);
    if (it == tenants_.end()) {
      return service_error(ErrorCode::kInvalidArgument,
                           "EvalService: unknown tenant '" + name + "'");
    }
    Tenant& tenant = it->second;
    if (tenant.closing || stop_) {
      ++tenant.rejected;
      return service_rejection(name, "EvalService: tenant '" + name +
                                         "' is shutting down");
    }
    if (tenant.quarantined) {
      ++tenant.rejected;
      return service_rejection(name, "EvalService: tenant '" + name +
                                         "' quarantined (error budget exhausted)");
    }
    if (charges.size() != tenant.source_size) {
      return service_error(ErrorCode::kInvalidArgument,
                           "EvalService: charge vector size mismatch for tenant '" +
                               name + "'");
    }
    // Checked at admission, not evaluation: a coalesced batch serves many
    // requests with one replay, and one tenant request with poisoned input
    // must fail alone rather than void its batch-mates' results.
    if (!all_finite(charges)) {
      ++tenant.errors;
      obs::registry()
          .counter(tenant_metric(obs::metric::kServiceErrors, name))
          .add(1);
      if (tenant.options.error_budget > 0 &&
          tenant.errors > tenant.options.error_budget) {
        tenant.quarantined = true;
      }
      return service_error(ErrorCode::kNonFinite,
                           "EvalService: non-finite charges for tenant '" + name +
                               "'");
    }
    if (tenant.queue.size() >= tenant.options.max_queue_depth) {
      ++tenant.rejected;
      return service_rejection(name, "EvalService: queue full for tenant '" +
                                         name + "'");
    }
    state = std::make_shared<detail::RequestState>();
    Request request;
    request.charges.assign(charges.begin(), charges.end());
    request.state = state;
    request.trace = rscope.context();
    request.submit_ns = rscope.start_ns();
    request.enqueue_ns = obs::reqtrace::now_ns();
    request.submitted_at = std::chrono::steady_clock::now();
    // Admission is a child slice; the root span (submit -> fulfill) is
    // recorded by the scheduler, which takes over the tail decision.
    obs::reqtrace::record_span(obs::reqtrace::child_of(request.trace),
                               obs::span::kReqServiceSubmit,
                               obs::reqtrace::SpanKind::kPhase,
                               request.submit_ns, request.enqueue_ns);
    (void)rscope.release();
    tenant.queue.push_back(std::move(request));
    ++tenant.submitted;
    obs::registry().counter(obs::metric::kServiceSubmitted).add(1);
    obs::registry()
        .counter(tenant_metric(obs::metric::kServiceSubmitted, name))
        .add(1);
  }
  work_cv_.notify_one();
  return Ticket(std::move(state));
}

Expected<void> EvalService::try_unregister_tenant(const std::string& name) {
  const Timer timer;
  obs::reqtrace::RequestScope rscope(obs::span::kReqServiceUnregister);
  Expected<void> result = try_unregister_tenant_impl(name);
  emit_request("service_unregister", 0, timer.seconds(),
               result.ok() ? nullptr : &result.error(), rscope);
  return result;
}

Expected<void> EvalService::try_unregister_tenant_impl(const std::string& name) {
  std::vector<Request> pending;
  std::unique_ptr<engine::EvalSession> session;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto it = tenants_.find(name);
    if (it == tenants_.end()) {
      return service_error(ErrorCode::kInvalidArgument,
                           "EvalService: unknown tenant '" + name + "'");
    }
    Tenant& tenant = it->second;
    if (tenant.closing) {
      return service_error(ErrorCode::kInvalidArgument,
                           "EvalService: tenant '" + name + "' already closing");
    }
    tenant.closing = true;  // no new admissions, no new batches
    idle_cv_.wait(lock, [&] { return !tenant.busy; });
    for (Request& request : tenant.queue) {
      pending.push_back(std::move(request));
    }
    tenant.queue.clear();
    // The session (plan cache, reservations) leaves the table under the
    // lock but is destroyed outside it: PlanCache's destructor withdraws
    // the tenant's plan bytes from the shared gauge in this step.
    session = std::move(tenant.session);
    tenants_.erase(it);
    obs::registry()
        .gauge(obs::metric::kServiceTenants)
        .set(static_cast<double>(tenants_.size()));
  }
  if (!pending.empty()) {
    obs::registry().counter(obs::metric::kServiceCancelled).add(pending.size());
    obs::registry()
        .counter(tenant_metric(obs::metric::kServiceCancelled, name))
        .add(pending.size());
  }
  cancel_pending(pending, "EvalService: tenant unregistered");
  session.reset();
  return {};
}

EvalService::Tenant* EvalService::pick_next_locked(std::string& name_out) {
  if (tenants_.empty()) return nullptr;
  auto ready = [](const Tenant& t) {
    return !t.busy && !t.closing && !t.queue.empty();
  };
  // Round-robin: resume after the last-served tenant so a chatty tenant
  // cannot starve the others.
  auto it = tenants_.upper_bound(rr_cursor_);
  for (std::size_t step = 0; step < tenants_.size(); ++step) {
    if (it == tenants_.end()) it = tenants_.begin();
    if (ready(it->second)) {
      name_out = it->first;
      return &it->second;
    }
    ++it;
  }
  return nullptr;
}

bool EvalService::any_ready_locked() const {
  for (const auto& [name, tenant] : tenants_) {
    if (!tenant.busy && !tenant.closing && !tenant.queue.empty()) return true;
  }
  return false;
}

std::size_t EvalService::run_round() {
  std::string name;
  std::vector<Request> batch;
  engine::EvalSession* session = nullptr;
  std::shared_ptr<const engine::EvalPlan> plan;
  double latency_slo = 0.0;
  double deadline_seconds = 0.0;
  std::uint64_t batch_seq = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    Tenant* tenant = pick_next_locked(name);
    if (tenant == nullptr) return 0;
    rr_cursor_ = name;
    const std::size_t width =
        std::min(tenant->queue.size(), tenant->options.max_batch_width);
    batch.reserve(width);
    for (std::size_t c = 0; c < width; ++c) {
      batch.push_back(std::move(tenant->queue.front()));
      tenant->queue.pop_front();
    }
    tenant->busy = true;
    session = tenant->session.get();
    plan = tenant->plan;
    latency_slo = tenant->options.latency_slo_seconds;
    deadline_seconds = tenant->options.eval.deadline_seconds;
    batch_seq = ++rounds_;
  }

  // Queue-wait spans close at pickup, and the batch trace is minted here —
  // on the scheduling thread, never inside workers, so the id stream (and
  // the retained set) is independent of the session pool's schedule.
  const std::int64_t pickup_ns = obs::reqtrace::now_ns();
  const auto pickup_at = std::chrono::steady_clock::now();
  for (const Request& request : batch) {
    obs::reqtrace::record_span(obs::reqtrace::child_of(request.trace),
                               obs::span::kServiceQueueWait,
                               obs::reqtrace::SpanKind::kQueue,
                               request.enqueue_ns, pickup_ns);
  }
  const obs::reqtrace::TraceContext batch_ctx = obs::reqtrace::mint_request();

  // The batched replay runs outside the service lock: the session
  // parallelizes over its own pool, and other tenants keep admitting and
  // (under the background scheduler + pump) even serving concurrently.
  const std::size_t width = batch.size();
  std::vector<std::span<const double>> columns;
  columns.reserve(width);
  for (const Request& request : batch) columns.push_back(request.charges);
  Expected<std::vector<EvalResult>> served = [&] {
    // Lend the batch context to the engine: its evaluate_batch scope and
    // replay phase spans become children of the batch span.
    const obs::reqtrace::ContextGuard guard(batch_ctx);
    return session->try_evaluate_batch(*plan, columns);
  }();
  const auto threads = static_cast<std::uint32_t>(session->pool().width());

  {
    const std::lock_guard<std::mutex> lock(mu_);
    Tenant& tenant = tenants_.at(name);  // alive: closing waits on busy
    tenant.busy = false;
    ++tenant.batches;
    tenant.batch_columns += width;
    tenant.max_batch_seen = std::max(tenant.max_batch_seen, width);
    obs::Registry& reg = obs::registry();
    reg.counter(obs::metric::kServiceBatches).add(1);
    reg.counter(obs::metric::kServiceBatchColumns).add(width);
    reg.gauge(obs::metric::kServiceBatchWidth)
        .record_max(static_cast<double>(width));
    if (served.ok()) {
      tenant.served += width;
      reg.counter(obs::metric::kServiceServed).add(width);
      reg.counter(tenant_metric(obs::metric::kServiceServed, name)).add(width);
    } else {
      tenant.errors += width;
      reg.counter(obs::metric::kServiceErrors).add(width);
      reg.counter(tenant_metric(obs::metric::kServiceErrors, name)).add(width);
      if (tenant.options.error_budget > 0 &&
          tenant.errors > tenant.options.error_budget) {
        tenant.quarantined = true;
      }
    }
  }
  idle_cv_.notify_all();

  // Per-request accounting at fulfillment: finish each request with its
  // one record (log, root span, tail decision; a retained member
  // force-keeps the batch trace so its flow links resolve), feed the tenant
  // latency histograms, wake the waiter.
  const std::int64_t done_ns = obs::reqtrace::now_ns();
  const auto done_at = std::chrono::steady_clock::now();
  obs::Registry& reg = obs::registry();
  bool any_deadline = false;
  std::int8_t max_rung = -1;
  std::vector<std::uint64_t> flows;
  flows.reserve(width);
  for (std::size_t c = 0; c < width; ++c) {
    Request& request = batch[c];
    const double latency =
        std::chrono::duration<double>(done_at - request.submitted_at).count();
    const double queue_wait =
        std::chrono::duration<double>(pickup_at - request.submitted_at).count();
    const bool ok = served.ok();
    const EvalStats* stats = ok ? &served.value()[c].stats : nullptr;
    const ErrorCode code = ok ? stats->outcome : served.error().code;

    obs::reqtrace::RequestRecord r;
    r.plan_key = plan->key;
    r.ok = ok;
    r.outcome = static_cast<std::uint8_t>(code);
    r.outcome_name = error_code_name(code);
    if (stats != nullptr) {
      r.rung = static_cast<std::int8_t>(stats->served_rung);
      r.targets = stats->targets_served;
    }
    r.deadline_missed = code == ErrorCode::kDeadline;
    r.slo_breach = latency_slo > 0.0 && latency > latency_slo;
    r.wall_seconds = latency;
    r.deadline_slack_seconds = deadline_seconds > 0.0
                                   ? deadline_seconds - latency
                                   : std::numeric_limits<double>::quiet_NaN();
    r.threads = threads;
    r.batch_width = static_cast<std::uint32_t>(width);
    r.queue_wait_seconds = queue_wait;
    r.batch_seq = batch_seq;
    if (r.deadline_missed) any_deadline = true;
    max_rung = std::max(max_rung, r.rung);
    finish_admitted(request.trace, request.submit_ns, r, &batch_ctx);
    if (obs::reqtrace::is_retained(request.trace)) {
      flows.push_back(request.trace.span_id);
    }

    reg.histogram(obs::metric::kServiceRequestSeconds, request_seconds_bounds())
        .observe(latency);
    reg.histogram(
           service_tenant_metric(obs::metric::kServiceRequestSeconds, name),
           request_seconds_bounds())
        .observe(latency);
    reg.histogram(obs::metric::kServiceQueueWaitSeconds,
                  request_seconds_bounds())
        .observe(queue_wait);
    if (deadline_seconds > 0.0) {
      reg.histogram(obs::metric::kServiceDeadlineSlackSeconds,
                    deadline_slack_bounds())
          .observe(r.deadline_slack_seconds);
      reg.histogram(service_tenant_metric(
                        obs::metric::kServiceDeadlineSlackSeconds, name),
                    deadline_slack_bounds())
          .observe(r.deadline_slack_seconds);
    }

    if (ok) {
      fulfill(request.state, std::move(served.value()[c]));
    } else {
      fulfill(request.state, Error(served.error()));
    }
  }

  // The batch span fans in from every *retained* member request span (flow
  // links must resolve in an export), then runs its own tail decision under
  // the members' aggregated record — so an errored or degraded member also
  // keeps the batch trace even when force-keep notes were not needed. The
  // batch is not a request: its record decides retention but is not logged.
  obs::reqtrace::RequestRecord batch_record;
  batch_record.ok = served.ok();
  batch_record.outcome = static_cast<std::uint8_t>(
      served.ok() ? ErrorCode::kOk : served.error().code);
  batch_record.rung = max_rung;
  batch_record.deadline_missed = any_deadline;
  batch_record.wall_seconds =
      std::chrono::duration<double>(done_at - pickup_at).count();
  obs::reqtrace::record_span(batch_ctx, obs::span::kServiceBatch,
                             obs::reqtrace::SpanKind::kBatch, pickup_ns,
                             done_ns, flows);
  obs::reqtrace::finish_request(batch_ctx, batch_record);
  return width;
}

std::size_t EvalService::pump() { return run_round(); }

void EvalService::scheduler_main() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || any_ready_locked(); });
      if (stop_) return;
    }
    run_round();
  }
}

std::size_t EvalService::num_tenants() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return tenants_.size();
}

obs::Json EvalService::state_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  obs::Json doc = obs::Json::object();
  doc["schema"] = "treecode-service/v1";
  doc["scheduler_running"] = scheduler_.joinable() && !stop_;
  doc["rounds"] = rounds_;
  doc["num_tenants"] = static_cast<std::uint64_t>(tenants_.size());
  doc["http_port"] =
      static_cast<std::uint64_t>(http_ != nullptr ? http_->port() : 0);
  // One registry snapshot serves every tenant's latency summary below.
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  obs::Json tenants = obs::Json::array();
  for (const auto& [name, tenant] : tenants_) {
    obs::Json t = obs::Json::object();
    t["name"] = name;
    t["queue_depth"] = static_cast<std::uint64_t>(tenant.queue.size());
    t["busy"] = tenant.busy;
    t["closing"] = tenant.closing;
    t["quarantined"] = tenant.quarantined;
    t["source_size"] = static_cast<std::uint64_t>(tenant.source_size);
    t["max_batch_width"] =
        static_cast<std::uint64_t>(tenant.options.max_batch_width);
    t["max_queue_depth"] =
        static_cast<std::uint64_t>(tenant.options.max_queue_depth);
    t["error_budget"] = tenant.options.error_budget;
    t["submitted"] = tenant.submitted;
    t["served"] = tenant.served;
    t["rejected"] = tenant.rejected;
    t["errors"] = tenant.errors;
    t["batches"] = tenant.batches;
    t["batch_columns"] = tenant.batch_columns;
    t["max_batch_seen"] = static_cast<std::uint64_t>(tenant.max_batch_seen);
    t["mean_batch_width"] =
        tenant.batches > 0 ? static_cast<double>(tenant.batch_columns) /
                                 static_cast<double>(tenant.batches)
                           : 0.0;
    if (tenant.plan != nullptr) {
      char key_hex[19];
      std::snprintf(key_hex, sizeof key_hex, "0x%016llx",
                    static_cast<unsigned long long>(tenant.plan->key));
      obs::Json plan = obs::Json::object();
      plan["key"] = key_hex;
      plan["self"] = tenant.plan->self;
      plan["num_targets"] = static_cast<std::uint64_t>(tenant.plan->num_targets());
      plan["num_entries"] =
          static_cast<std::uint64_t>(tenant.plan->entries.size());
      plan["bytes"] = static_cast<std::uint64_t>(tenant.plan->memory_bytes());
      // Always 0 (plans hold no basis); kept for bench/suite/service_open.cpp.
      plan["basis_bytes"] = std::uint64_t{0};
      t["plan"] = std::move(plan);
    }
    if (tenant.session != nullptr) {
      t["governor"] = engine::governor_json(tenant.session->governor());
      t["plan_cache"] = engine::plan_cache_json(tenant.session->cache());
    }
    t["latency_slo_seconds"] = tenant.options.latency_slo_seconds;
    const auto hist = snap.histograms.find(
        service_tenant_metric(obs::metric::kServiceRequestSeconds, name));
    if (hist != snap.histograms.end() && hist->second.total > 0) {
      const obs::HistogramSnapshot& h = hist->second;
      obs::Json latency = obs::Json::object();
      latency["count"] = h.total;
      latency["mean_seconds"] = h.sum / static_cast<double>(h.total);
      latency["p50_seconds"] = obs::openmetrics::histogram_quantile(h, 0.50);
      latency["p99_seconds"] = obs::openmetrics::histogram_quantile(h, 0.99);
      t["latency"] = std::move(latency);
    }
    tenants.push_back(std::move(t));
  }
  doc["tenants"] = std::move(tenants);
  return doc;
}

std::vector<obs::slo::Rule> EvalService::slo_rules() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<obs::slo::Rule> rules;
  {
    obs::slo::Rule aggregate;
    aggregate.name = "service-error-rate";
    aggregate.kind = obs::slo::RuleKind::kCounterRatio;
    aggregate.metric = obs::metric::kServiceErrors;
    aggregate.denominator = obs::metric::kServiceRequests;
    aggregate.threshold = 0.01;
    rules.push_back(std::move(aggregate));
  }
  for (const auto& [name, tenant] : tenants_) {
    obs::slo::Rule rejected;
    rejected.name = "service-rejected-share-" + name;
    rejected.kind = obs::slo::RuleKind::kCounterRatio;
    rejected.metric = tenant_metric(obs::metric::kServiceRejected, name);
    rejected.denominator = tenant_metric(obs::metric::kServiceSubmitted, name);
    rejected.threshold = 0.5;
    rules.push_back(std::move(rejected));

    obs::slo::Rule errors;
    errors.name = "service-error-share-" + name;
    errors.kind = obs::slo::RuleKind::kCounterRatio;
    errors.metric = tenant_metric(obs::metric::kServiceErrors, name);
    errors.denominator = tenant_metric(obs::metric::kServiceSubmitted, name);
    errors.threshold = 0.05;
    rules.push_back(std::move(errors));

    if (tenant.options.latency_slo_seconds > 0.0) {
      obs::slo::Rule p99;
      p99.name = "service-latency-p99-" + name;
      p99.kind = obs::slo::RuleKind::kHistogramQuantile;
      p99.metric =
          service_tenant_metric(obs::metric::kServiceRequestSeconds, name);
      p99.quantile = 0.99;
      p99.threshold = tenant.options.latency_slo_seconds;
      rules.push_back(std::move(p99));
    }
  }
  return rules;
}

Expected<std::uint16_t> EvalService::start_http(std::uint16_t port) {
  auto server = std::make_unique<obs::httpd::Server>();
  server->handle("/metrics", [](const obs::httpd::Request&) {
    obs::httpd::Response response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = obs::openmetrics::render(obs::registry().snapshot());
    return response;
  });
  server->handle("/healthz", [this](const obs::httpd::Request&) {
    // A fresh watchdog per scrape: /healthz reports, it does not accumulate
    // breach side effects across scrapes beyond the slo.* counters.
    obs::slo::Watchdog watchdog;
    for (obs::slo::Rule& rule : obs::slo::default_engine_rules()) {
      watchdog.add_rule(std::move(rule));
    }
    for (obs::slo::Rule& rule : slo_rules()) {
      watchdog.add_rule(std::move(rule));
    }
    const std::vector<obs::slo::Status> statuses =
        watchdog.check(obs::registry().snapshot());
    bool breaching = false;
    for (const obs::slo::Status& status : statuses) {
      breaching = breaching || status.breached;
    }
    obs::Json doc = watchdog.status_json();
    doc["status"] = breaching ? "breaching" : "ok";
    obs::httpd::Response response;
    response.status = breaching ? 503 : 200;
    response.body = doc.dump(2) + "\n";
    return response;
  });
  server->handle("/state", [this](const obs::httpd::Request&) {
    obs::httpd::Response response;
    response.body = state_json().dump(2) + "\n";
    return response;
  });
  server->handle("/traces", [](const obs::httpd::Request& request) {
    const std::string n = request.query_value("n", "32");
    const unsigned long long max_traces = std::strtoull(n.c_str(), nullptr, 10);
    obs::httpd::Response response;
    response.content_type = "application/x-ndjson";
    response.body =
        obs::reqtrace::jsonl(static_cast<std::size_t>(max_traces));
    return response;
  });
  const obs::httpd::StartResult started = server->try_start(port);
  if (!started.ok) {
    return service_error(ErrorCode::kInternal,
                         "EvalService: observability endpoint failed: " +
                             started.error);
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (http_ != nullptr) {
      // Caller raced two start_http calls; keep the first server.
      server->stop();
      return service_error(ErrorCode::kInvalidArgument,
                           "EvalService: observability endpoint already running");
    }
    http_ = std::move(server);
  }
  return started.port;
}

void EvalService::stop_http() {
  std::unique_ptr<obs::httpd::Server> server;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    server = std::move(http_);
  }
  // stop() joins the accept thread, whose handlers may be waiting on mu_ —
  // so it must run with the lock released.
  if (server != nullptr) server->stop();
}

std::uint16_t EvalService::http_port() const noexcept {
  const std::lock_guard<std::mutex> lock(mu_);
  return http_ != nullptr ? http_->port() : 0;
}

}  // namespace treecode::service
