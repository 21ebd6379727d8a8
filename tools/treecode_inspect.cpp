// treecode-inspect: build a demo EvalSession, drive it through a few
// telemetered evaluations, and dump the full engine state snapshot
// (treecode-inspect/v1: provenance, session, governor ledger, plan-cache
// contents, telemetry records, flight-recorder ring, metrics, warnings) as
// one JSON document — the operator's "what is this engine doing?" view.
//
//   ./tools/treecode-inspect [--n 4k] [--alpha 0.5] [--degree 4]
//       [--threads 4] [--evals 4] [--audit-samples 64]
//       [--memory-budget-bytes 0] [--out inspect.json]
//       [--openmetrics-out metrics.prom] [--telemetry-out records.jsonl]
//       [--traces-out traces.jsonl] [--trace-chrome-out trace.json]
//       [--trace-sample-rate 1.0] [--slo] [--service]
//       [--serve PORT] [--serve-seconds 0]
//
// With no --out the document prints to stdout. --slo checks the default
// engine SLO rules against the final snapshot and includes the watchdog
// status block. --service swaps the single-session demo for a two-tenant
// EvalService demo (concurrent submitters, coalesced batched replays) and
// adds the `service` block — tenants, queues, request accounting, batch
// occupancy, per-tenant governor ledgers; --slo then also checks the
// service's per-tenant rules.
//
// Tracing is armed for the whole run (sampler seed 1, healthy-keep rate
// --trace-sample-rate): --traces-out writes the retained request traces as
// treecode-trace/v1 JSONL, --trace-chrome-out every span the tracer holds,
// phase timeline included, as a Chrome/Perfetto trace-event file. --serve PORT (requires --service; 0 = ephemeral) starts
// the service's live observability endpoint — GET /metrics /healthz /state
// /traces — prints `serving on http://127.0.0.1:<port>`, and holds the
// process for --serve-seconds after the demo so a scraper can probe it.
// Exit status: 0 on success, 1 on engine error, 2 when --slo found
// breaches.

#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "dist/distributions.hpp"
#include "engine/eval_session.hpp"
#include "engine/introspect.hpp"
#include "obs/openmetrics.hpp"
#include "obs/recorder.hpp"
#include "obs/reqtrace.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"
#include "service/eval_service.hpp"
#include "tree/octree.hpp"
#include "util/cli.hpp"

namespace {

// Two random-cloud tenants, `evals` submissions each from concurrent
// submitter threads, so the scheduler actually coalesces batches. Returns
// the service document to attach, or a null Json on failure. serve_port
// >= 0 starts the live endpoint (0 = ephemeral) and, after the demo,
// holds the process serving for serve_seconds.
treecode::obs::Json run_service_demo(std::size_t n, const treecode::EvalConfig& cfg,
                                     int evals, int* exit_code, bool check_slo,
                                     int serve_port, double serve_seconds) {
  using namespace treecode;
  service::EvalService svc;
  if (serve_port >= 0) {
    auto started = svc.start_http(static_cast<std::uint16_t>(serve_port));
    if (!started.ok()) {
      std::fprintf(stderr, "serve failed: %s\n", started.error().message.c_str());
      *exit_code = 1;
      return {};
    }
    // Scrape scripts parse this line for the bound (possibly ephemeral)
    // port; flush so it is visible before the serving window starts.
    std::printf("serving on http://127.0.0.1:%u\n",
                static_cast<unsigned>(started.value()));
    std::fflush(stdout);
  }
  service::EvalService::TenantOptions topt;
  topt.eval = cfg;
  topt.tree = TreeConfig{.leaf_capacity = 8};
  // Give the demo tenants a latency objective so per-tenant p99 SLO rules
  // and slo-reason trace retention are exercised end to end.
  topt.latency_slo_seconds = 30.0;
  const char* names[2] = {"cloud-a", "cloud-b"};
  const std::size_t sizes[2] = {n, n / 2 + 1};
  for (int t = 0; t < 2; ++t) {
    const ParticleSystem ps = dist::uniform_cube(sizes[t], /*seed=*/42 + t);
    if (auto r = svc.try_register_tenant(names[t], ps, {}, topt); !r.ok()) {
      std::fprintf(stderr, "register %s failed: %s\n", names[t],
                   r.error().message.c_str());
      *exit_code = 1;
      return {};
    }
  }
  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&, t] {
      std::vector<double> charges(sizes[t], 1.0 / static_cast<double>(sizes[t]));
      std::vector<service::EvalService::Ticket> tickets;
      for (int i = 0; i < evals; ++i) {
        charges[0] = static_cast<double>(i + 1);
        if (auto r = svc.try_submit(names[t], charges); r.ok()) {
          tickets.push_back(std::move(r).value());
        }
      }
      for (auto& ticket : tickets) (void)ticket.wait();
    });
  }
  for (std::thread& th : submitters) th.join();

  if (serve_port >= 0 && serve_seconds > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(serve_seconds));
  }

  obs::Json doc = svc.state_json();
  if (check_slo) {
    obs::slo::Watchdog watchdog;
    for (obs::slo::Rule& rule : svc.slo_rules()) {
      watchdog.add_rule(std::move(rule));
    }
    watchdog.check(obs::registry().snapshot());
    doc["slo"] = watchdog.status_json();
    if (watchdog.breaches() > 0 && *exit_code == 0) *exit_code = 2;
  }
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace treecode;
  try {
    const CliFlags flags(argc, argv,
                         {"n", "alpha", "degree", "threads", "evals",
                          "audit-samples", "memory-budget-bytes", "out",
                          "openmetrics-out", "telemetry-out", "traces-out",
                          "trace-chrome-out", "trace-sample-rate", "slo",
                          "service", "serve", "serve-seconds"});
    const std::size_t n = static_cast<std::size_t>(flags.get_int("n", 4'000));
    const int evals = static_cast<int>(flags.get_int("evals", 4));
    const std::string out = flags.get_string("out", "");
    const std::string openmetrics_out = flags.get_string("openmetrics-out", "");
    const std::string telemetry_out = flags.get_string("telemetry-out", "");
    const std::string traces_out = flags.get_string("traces-out", "");
    const std::string trace_chrome_out = flags.get_string("trace-chrome-out", "");
    const int serve_port = static_cast<int>(flags.get_int("serve", -1));
    const double serve_seconds = flags.get_double("serve-seconds", 0.0);
    if (serve_port >= 0 && !flags.get_bool("service")) {
      std::fprintf(stderr, "--serve requires --service\n");
      return 1;
    }

    obs::telemetry::enable();
    if (!telemetry_out.empty()) obs::telemetry::set_sink(telemetry_out);
    obs::recorder::start();
    obs::reqtrace::SamplerConfig trace_cfg;
    trace_cfg.seed = 1;
    trace_cfg.sample_rate = flags.get_double("trace-sample-rate", 1.0);
    obs::reqtrace::enable(trace_cfg);

    EvalConfig cfg;
    cfg.alpha = flags.get_double("alpha", 0.5);
    cfg.degree = static_cast<int>(flags.get_int("degree", 4));
    cfg.mode = DegreeMode::kAdaptive;
    cfg.threads = static_cast<unsigned>(flags.get_int("threads", 4));
    cfg.track_error_bounds = true;
    cfg.audit_samples = static_cast<std::size_t>(flags.get_int("audit-samples", 64));
    cfg.memory_budget_bytes =
        static_cast<std::size_t>(flags.get_int("memory-budget-bytes", 0));

    int exit_code = 0;
    obs::Json doc;
    if (flags.get_bool("service")) {
      // Service demo: the service block carries per-tenant governors and
      // plan caches, so the document has no single-session block.
      obs::Json service_doc =
          run_service_demo(n, cfg, evals, &exit_code, flags.get_bool("slo"),
                           serve_port, serve_seconds);
      if (exit_code == 1) return 1;
      doc = engine::inspect_json(nullptr);
      doc["service"] = std::move(service_doc);
    } else {
      const ParticleSystem ps = dist::uniform_cube(n, /*seed=*/42);
      engine::EvalSession session(Tree(ps, TreeConfig{.leaf_capacity = 8}), cfg);

      // A warm replay loop: compile once, then refresh + replay per "solver
      // iteration" — the lifecycle the telemetry records should show.
      auto plan = session.try_compile_self();
      if (!plan.ok()) {
        std::fprintf(stderr, "compile failed: %s\n", plan.error().message.c_str());
        return 1;
      }
      std::vector<double> charges(session.sorted_charges().begin(),
                                  session.sorted_charges().end());
      for (int i = 0; i < evals; ++i) {
        for (double& q : charges) q = -q;
        if (auto r = session.try_update_charges_sorted(charges); !r.ok()) {
          std::fprintf(stderr, "update failed: %s\n", r.error().message.c_str());
          return 1;
        }
        if (auto r = session.try_evaluate(*plan.value()); !r.ok()) {
          std::fprintf(stderr, "evaluate failed: %s\n", r.error().message.c_str());
          return 1;
        }
      }

      doc = engine::inspect_json(&session);

      if (flags.get_bool("slo")) {
        obs::slo::Watchdog watchdog;
        for (obs::slo::Rule& rule : obs::slo::default_engine_rules()) {
          watchdog.add_rule(std::move(rule));
        }
        watchdog.check(obs::registry().snapshot());
        doc["slo"] = watchdog.status_json();
        if (watchdog.breaches() > 0) exit_code = 2;
      }
    }

    if (!openmetrics_out.empty() &&
        !obs::openmetrics::write(openmetrics_out, obs::registry().snapshot())) {
      return 1;
    }
    if (!traces_out.empty() && !obs::reqtrace::write_jsonl(traces_out)) {
      return 1;
    }
    if (!trace_chrome_out.empty() &&
        !obs::reqtrace::write_chrome_json(trace_chrome_out)) {
      return 1;
    }
    obs::telemetry::close_sink();

    if (out.empty()) {
      std::printf("%s\n", doc.dump(2).c_str());
    } else {
      obs::write_json_file(out, doc);
      std::printf("wrote %s\n", out.c_str());
    }
    return exit_code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
