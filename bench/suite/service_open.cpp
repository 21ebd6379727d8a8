// service-open: the serving path, where queueing amplifies replay time.
// Two tenants share one EvalService: `prop` serves the bem-solve vertex
// plan, `cloud` a self plan over overlapped Gaussians. Load is an open
// loop of Poisson arrivals (prop 12 req/s, cloud 2 req/s), so a slow
// scheduler builds a queue instead of slowing the senders; every request
// is timed from its scheduled send time. About a third of the requests
// wait behind another; the two tenants expose round-robin fairness.
//
// The rates were chosen for a steady tail, not taken from measured
// traffic. At 24 + 4 req/s a single prop request (~25 ms of replay on four
// cores) kept the scheduler about 65% busy and op_p50_s spread 14% over
// seeds; half those rates keep it about a third busy, where queueing still
// shows (op_p90_s is a queued request). At a third of them op_p90_s fell
// at the edge between queued and unqueued requests and spread 9%. At this
// load most batches hold one request, so the coalesced replay is rarely
// exercised here; the traced run's batch probe measures it.
//
// Threads: this thread generates the load; one waiter per tenant collects
// tickets in submission order (the service serves a tenant FIFO).

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "core/direct.hpp"
#include "dist/distributions.hpp"
#include "engine/eval_session.hpp"
#include "obs/metric_names.hpp"
#include "probes.hpp"
#include "service/eval_service.hpp"
#include "workloads.hpp"

namespace treecode::suite {

namespace {

struct Tenant {
  const char* name;
  ParticleSystem sources;
  std::vector<Vec3> targets;  ///< empty = self plan
  double rate;                ///< requests per second
  std::vector<std::vector<double>> columns;
  std::vector<std::vector<double>> reference;  ///< single-RHS replay per column
};

struct Arrival {
  double at;  ///< seconds after the load starts
  std::size_t tenant;
  std::size_t column;
};

/// Admitted requests of one tenant, in submission order.
struct Inbox {
  struct Pending {
    service::EvalService::Ticket ticket;
    Clock::time_point scheduled;
    std::size_t column = 0;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;  // guarded by mu
  bool closed = false;        // guarded by mu
};

/// Single-RHS references through a standalone session with the tenant's
/// geometry and config. Returns the session's relative error vs direct
/// summation at unit density (the tenant's own charges), an input that is
/// the same in every run.
double compute_references(Tenant& t) {
  engine::EvalSession session(Tree(t.sources), eval_config());
  const std::shared_ptr<const engine::EvalPlan> plan =
      (t.targets.empty() ? session.try_compile_self() : session.try_compile(t.targets))
          .value_or_throw();
  for (const std::vector<double>& column : t.columns) {
    session.try_update_charges(column).value_or_throw();
    t.reference.push_back(session.try_evaluate(*plan).value_or_throw().potential);
  }
  session.try_update_charges(t.sources.charges()).value_or_throw();
  const EvalResult exact = t.targets.empty()
                               ? evaluate_direct(t.sources, kThreads)
                               : evaluate_direct_at(t.sources, t.targets, kThreads);
  PooledError error;
  error.add(session.try_evaluate(*plan).value_or_throw().potential, exact.potential);
  return error.value();
}

}  // namespace

void run_service_open(const Args& args, Tracer& tracer, Report& report) {
  const Propeller prop = make_propeller_mesh(args.smoke ? 600 : 6'000);
  std::vector<Tenant> tenants;
  tenants.push_back({"prop", gauss_particles(prop.quad), prop.mesh.vertices(), 12.0, {}, {}});
  tenants.push_back({"cloud",
                     dist::overlapped_gaussians(args.smoke ? 500 : 4'000, 8,
                                                mix_seed(kGeometrySeed, 2)),
                     {}, 2.0, {}, {}});
  std::vector<double> rel(tenants.size());
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    tenants[t].columns = make_columns(tenants[t].sources, 8, mix_seed(args.seed, 10 + t));
    const auto span = tracer.span("references");
    rel[t] = compute_references(tenants[t]);
    report.details[std::string(tenants[t].name) + "_rel_error"] = rel[t];
    if (!(rel[t] < 1e-2)) {
      report.fail(std::string("error vs direct too large: ") + tenants[t].name);
    }
  }
  // The reported error is prop's; cloud's is in the details. A self plan's
  // error is several times a vertex plan's, so pooling the two tenants
  // would let cloud's dominate.
  report.set_e2e("rel_error", rel[0], "ratio");

  // Set-up: both registrations (tree, degrees, plan compile) plus one warm
  // request per tenant.
  service::EvalService::TenantOptions options;
  options.eval = eval_config();
  options.max_batch_width = 8;
  options.max_queue_depth = 512;
  std::unique_ptr<service::EvalService> svc;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    const Clock::time_point t0 = Clock::now();
    const auto span = tracer.span("setup");
    svc = std::make_unique<service::EvalService>();
    for (const Tenant& t : tenants) {
      if (!svc->try_register_tenant(t.name, t.sources, t.targets, options).ok()) {
        report.fail(std::string("register ") + t.name);
        return;
      }
    }
    for (const Tenant& t : tenants) {
      auto ticket = svc->try_submit(t.name, t.columns[0]);
      if (!ticket.ok()) {
        report.fail(std::string("warm request rejected: ") + t.name);
        return;
      }
      const Expected<EvalResult> r = ticket.value().wait();
      if (!r.ok() || !bitwise_equal(r.value().potential, t.reference[0])) {
        report.fail(std::string("warm request differs from its reference: ") + t.name);
      }
    }
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  report.set_e2e("setup_s", median(setup), "s");

  // Poisson arrivals conditioned on their count: exactly rate x seconds
  // requests per tenant at independent uniform times. Fixing the count
  // keeps the offered load, and so the utilization, the same in every run.
  // The arrival times, like the geometries, are the same in every run of a
  // given length: over seeds, which requests happened to queue moved
  // op_p90_s by as much as the host did. The seed draws each request's
  // charges.
  std::vector<Arrival> arrivals;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    std::mt19937_64 times(mix_seed(kGeometrySeed, 20 + t));
    std::mt19937_64 charges(mix_seed(args.seed, 20 + t));
    std::uniform_real_distribution<double> when(0.0, args.seconds);
    std::uniform_int_distribution<std::size_t> column(0, tenants[t].columns.size() - 1);
    const auto count = static_cast<std::size_t>(std::llround(tenants[t].rate * args.seconds));
    for (std::size_t i = 0; i < count; ++i) arrivals.push_back({when(times), t, column(charges)});
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) { return a.at < b.at; });

  std::vector<Inbox> inboxes(tenants.size());
  std::vector<std::vector<double>> latencies(tenants.size());
  std::vector<double> load_balance(tenants.size(), 0.0);
  auto collect = [&](std::size_t t) {
    Inbox& inbox = inboxes[t];
    for (;;) {
      Inbox::Pending p;
      {
        std::unique_lock<std::mutex> lock(inbox.mu);
        inbox.cv.wait(lock, [&] { return inbox.closed || !inbox.queue.empty(); });
        if (inbox.queue.empty()) return;
        p = std::move(inbox.queue.front());
        inbox.queue.pop_front();
      }
      const auto span = tracer.span("service.wait");
      const Expected<EvalResult> r = p.ticket.wait();
      latencies[t].push_back(seconds_between(p.scheduled, Clock::now()));
      if (!r.ok()) {
        report.fail(std::string("request failed: ") + r.error().message);
      } else if (!bitwise_equal(r.value().potential, tenants[t].reference[p.column])) {
        report.fail(std::string("result differs from its single-RHS replay: ") +
                    tenants[t].name);
      } else {
        load_balance[t] += r.value().stats.work.load_balance();
      }
    }
  };

  std::vector<double> lag;
  std::vector<double> submit_s;
  auto send_all = [&] {
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const Arrival& a = arrivals[i];
      const Clock::time_point scheduled = after(start, a.at);
      // Sleep to just short of the send time, then spin: a thread woken from
      // sleep while the replay workers hold every core can wait a scheduler
      // slice for one, which would delay the send.
      std::this_thread::sleep_until(scheduled - std::chrono::milliseconds(4));
      while (Clock::now() < scheduled) {
      }
      const Clock::time_point sent = Clock::now();
      lag.push_back(seconds_between(scheduled, sent));
      const Tenant& t = tenants[a.tenant];
      Expected<service::EvalService::Ticket> ticket = [&] {
        const auto span = tracer.span("service.try_submit", static_cast<std::int64_t>(i));
        return svc->try_submit(t.name, t.columns[a.column]);
      }();
      submit_s.push_back(seconds_between(sent, Clock::now()));
      if (!ticket.ok()) {
        report.fail(std::string("request rejected: ") + ticket.error().message);
        continue;
      }
      Inbox& inbox = inboxes[a.tenant];
      {
        const std::lock_guard<std::mutex> lock(inbox.mu);
        inbox.queue.push_back({std::move(ticket.value()), scheduled, a.column});
      }
      inbox.cv.notify_one();
    }
  };

  // The waiters drain whatever was admitted (the service serves every
  // ticket) and are joined on every exit, exceptional ones included.
  std::vector<std::thread> waiters;
  auto close_and_join = [&] {
    for (Inbox& inbox : inboxes) {
      {
        const std::lock_guard<std::mutex> lock(inbox.mu);
        inbox.closed = true;
      }
      inbox.cv.notify_one();
    }
    for (std::thread& w : waiters) w.join();
  };
  RegistryDelta delta;
  delta.before = obs::registry().snapshot();
  try {
    for (std::size_t t = 0; t < tenants.size(); ++t) waiters.emplace_back(collect, t);
    send_all();
  } catch (...) {
    close_and_join();
    throw;
  }
  close_and_join();
  delta.after = obs::registry().snapshot();

  report.attempted = arrivals.size();
  std::vector<double> all;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    all.insert(all.end(), latencies[t].begin(), latencies[t].end());
    report.details[std::string(tenants[t].name) + "_requests"] =
        static_cast<std::uint64_t>(latencies[t].size());
    report.details[std::string(tenants[t].name) + "_p50_s"] = median(latencies[t]);
  }
  report.set_op_latencies(all);
  const double lag_p99 = quantile(lag, 0.99);
  report.details["loadgen_lag_p99_s"] = lag_p99;
  // A late generator under-offers load: such a run is not comparable.
  report.valid = lag_p99 <= 5e-3;

  const obs::Json state = svc->state_json();
  double used = 0.0;
  double sources = 0.0;
  double entries = 0.0;
  double plan_bytes = 0.0;
  double basis_bytes = 0.0;
  for (std::size_t t = 0; t < state.at("tenants").size(); ++t) {
    const obs::Json& tj = state.at("tenants").at(t);
    used += tj.at("governor").at("used_bytes").as_double();
    sources += tj.at("source_size").as_double();
    entries += tj.at("plan").at("num_entries").as_double();
    plan_bytes += tj.at("plan").at("bytes").as_double();
    basis_bytes += tj.at("plan").at("basis_bytes").as_double();
  }
  report.set_e2e("bytes_per_source", used / sources, "B");
  report.set_e2e("peak_rss_mb", peak_rss_mb(), "MB");

  if (!tracer.enabled()) return;
  registry_layers(delta, static_cast<double>(report.attempted), report);
  report.set_layer("engine.plan_entries", entries, "count");
  report.set_layer("engine.plan_bytes", plan_bytes, "B");
  report.set_layer("engine.basis_bytes", basis_bytes, "B");
  compile_layer(report);
  report.set_layer("parallel.load_balance",
                   (load_balance[0] + load_balance[1]) /
                       std::max(static_cast<double>(all.size()), 1.0),
                   "ratio");
  const char* wait = obs::metric::kServiceQueueWaitSeconds;
  report.set_layer("service.queue_wait_p50_s", delta.histogram_quantile(wait, 0.50), "s");
  report.set_layer("service.queue_wait_p99_s", delta.histogram_quantile(wait, 0.99), "s");
  const double batches = delta.counter(obs::metric::kServiceBatches);
  report.set_layer("service.batch_width_mean",
                   batches > 0 ? delta.counter(obs::metric::kServiceBatchColumns) / batches : 0.0,
                   "count");
  report.set_layer("service.submit_p99_s", quantile(submit_s, 0.99), "s");
  report.set_layer("service.rejected", delta.counter(obs::metric::kServiceRejected), "count");
  report.set_layer("loadgen.lag_p99_s", lag_p99, "s");
  svc.reset();  // free both tenants' plans before the probes build their own
  probe_vertex_plan(prop, args.seed, args.smoke, tracer, report);
}

}  // namespace treecode::suite
