// Service-level request tracing: every unhealthy request retains a trace
// covering the full causal path (submit -> queue wait -> coalesced batch
// with a resolving flow link -> replay phases), cancelled requests are
// tail-kept, per-tenant latency histograms surface in state_json, the live
// HTTP endpoint serves all four observability routes, and — the
// determinism contract — the retained-trace set for a fixed sampler seed
// is bitwise-identical across session thread counts in pump mode.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "dist/distributions.hpp"
#include "obs/json.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "service/eval_service.hpp"

namespace treecode {
namespace {

namespace rt = obs::reqtrace;

class ServiceTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rt::reset();
    obs::registry().reset_values();
  }
  void TearDown() override {
    rt::reset();
    obs::registry().reset_values();
  }

  static service::EvalService::TenantOptions tenant_options(
      unsigned threads = 2) {
    service::EvalService::TenantOptions topt;
    topt.eval.alpha = 0.5;
    topt.eval.degree = 4;
    topt.eval.mode = DegreeMode::kAdaptive;
    topt.eval.threads = threads;
    return topt;
  }

  static std::vector<double> charges_for(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    std::vector<double> q(n);
    for (double& v : q) v = u(rng);
    return q;
  }

  static void enable_tracing(std::uint64_t seed, double sample_rate) {
    rt::SamplerConfig config;
    config.seed = seed;
    config.sample_rate = sample_rate;
    rt::enable(config);
  }

  static bool has_span(const rt::RetainedTrace& trace, const std::string& name,
                       rt::SpanKind kind) {
    for (const rt::SpanRecord& span : trace.spans) {
      if (span.name == name && span.kind == kind) return true;
    }
    return false;
  }

  static const rt::SpanRecord* root_span(const rt::RetainedTrace& trace) {
    for (const rt::SpanRecord& span : trace.spans) {
      if (span.parent_span_id == 0) return &span;
    }
    return nullptr;
  }
};

TEST_F(ServiceTraceTest, UnhealthyRequestsRetainTheFullCausalPath) {
  enable_tracing(/*seed=*/1, /*sample_rate=*/0.0);
  const ParticleSystem ps = dist::uniform_cube(600, 17);
  service::EvalService svc(
      service::EvalService::Options{.start_scheduler = false});
  service::EvalService::TenantOptions topt = tenant_options();
  // An SLO no real evaluation can meet: every served request breaches and
  // must therefore be tail-kept even at sample rate 0.
  topt.latency_slo_seconds = 1e-9;
  ASSERT_TRUE(svc.try_register_tenant("t", ps, {}, topt).ok());

  std::vector<service::EvalService::Ticket> tickets;
  for (std::size_t c = 0; c < 3; ++c) {
    auto ticket = svc.try_submit("t", charges_for(ps.size(), 100 + c));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(std::move(ticket).value());
  }
  ASSERT_EQ(svc.pump(), 3u);
  for (auto& ticket : tickets) ASSERT_TRUE(ticket.wait().ok());

  std::vector<const rt::RetainedTrace*> members;
  const rt::RetainedTrace* batch = nullptr;
  const std::vector<rt::RetainedTrace> retained = rt::retained();
  for (const rt::RetainedTrace& trace : retained) {
    if (has_span(trace, "service.batch", rt::SpanKind::kBatch)) {
      batch = &trace;
    } else if (has_span(trace, "service.request", rt::SpanKind::kRequest)) {
      members.push_back(&trace);
    }
  }

  // All three breaching requests are retained, with the full causal path:
  // root request span, admission slice, queue wait.
  ASSERT_EQ(members.size(), 3u);
  for (const rt::RetainedTrace* member : members) {
    EXPECT_STREQ(member->reason, "slo");
    EXPECT_TRUE(has_span(*member, "service.req.submit", rt::SpanKind::kPhase));
    EXPECT_TRUE(has_span(*member, "service.queue_wait", rt::SpanKind::kQueue));
    const rt::SpanRecord* root = root_span(*member);
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->kind, rt::SpanKind::kRequest);
    // Children sit inside the root window.
    for (const rt::SpanRecord& span : member->spans) {
      EXPECT_GE(span.start_ns, root->start_ns);
      EXPECT_LE(span.end_ns, root->end_ns);
    }
  }

  // The batch trace rode along via forced keep, carries one flow link per
  // retained member (resolving to that member's root span), and contains
  // the replay phases the engine recorded under the lent batch context.
  ASSERT_NE(batch, nullptr);
  EXPECT_STREQ(batch->reason, "forced");
  const rt::SpanRecord* batch_span = nullptr;
  for (const rt::SpanRecord& span : batch->spans) {
    if (span.kind == rt::SpanKind::kBatch) batch_span = &span;
  }
  ASSERT_NE(batch_span, nullptr);
  ASSERT_EQ(batch_span->flow_count, 3u);
  for (std::uint32_t f = 0; f < batch_span->flow_count; ++f) {
    bool resolved = false;
    for (const rt::RetainedTrace* member : members) {
      const rt::SpanRecord* root = root_span(*member);
      if (root != nullptr && root->span_id == batch_span->flows[f]) {
        resolved = true;
      }
    }
    EXPECT_TRUE(resolved) << "flow " << f << " does not reach a retained root";
  }
  bool saw_replay_phase = false;
  for (const rt::SpanRecord& span : batch->spans) {
    const std::string name = span.name;
    if (name.rfind("time.", 0) == 0 || name.rfind("engine.", 0) == 0) {
      saw_replay_phase = true;
    }
  }
  EXPECT_TRUE(saw_replay_phase);
}

TEST_F(ServiceTraceTest, CancelledQueuedRequestsAreTailKept) {
  enable_tracing(/*seed=*/1, /*sample_rate=*/0.0);
  const ParticleSystem ps = dist::uniform_cube(400, 3);
  service::EvalService svc(
      service::EvalService::Options{.start_scheduler = false});
  ASSERT_TRUE(svc.try_register_tenant("t", ps, {}, tenant_options()).ok());

  const std::vector<double> q(ps.size(), 1.0);
  auto first = svc.try_submit("t", q);
  auto second = svc.try_submit("t", q);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(svc.try_unregister_tenant("t").ok());
  EXPECT_EQ(first.value().wait().error().code, ErrorCode::kCancelled);
  EXPECT_EQ(second.value().wait().error().code, ErrorCode::kCancelled);

  // Both cancelled requests finished their traces with an error record,
  // so the tail sampler kept them even at sample rate 0.
  std::size_t cancelled_traces = 0;
  for (const rt::RetainedTrace& trace : rt::retained()) {
    if (!has_span(trace, "service.request", rt::SpanKind::kRequest)) continue;
    EXPECT_STREQ(trace.reason, "error");
    ++cancelled_traces;
  }
  EXPECT_EQ(cancelled_traces, 2u);
  // ...and each logged that record, under its own trace id.
  std::size_t cancelled_records = 0;
  for (const rt::RequestRecord& record : rt::records()) {
    if (std::string(record.api) != "service_serve") continue;
    EXPECT_FALSE(record.ok);
    EXPECT_EQ(record.outcome, static_cast<std::uint8_t>(ErrorCode::kCancelled));
    EXPECT_NE(record.trace_hi | record.trace_lo, 0u);
    ++cancelled_records;
  }
  EXPECT_EQ(cancelled_records, 2u);
}

TEST_F(ServiceTraceTest, RequestLogCountsEachRequestOnce) {
  // treecode-inspect --service --evals 8's shape: two tenants, eight
  // submissions each. The log holds every record (admissions, serves,
  // registrations and the engine calls made on their behalf), but
  // telemetry.requests counts 16 served requests plus 2 registrations.
  enable_tracing(/*seed=*/1, /*sample_rate=*/0.0);
  service::EvalService svc(
      service::EvalService::Options{.start_scheduler = false});
  const char* names[2] = {"cloud-a", "cloud-b"};
  for (std::uint64_t t = 0; t < 2; ++t) {
    const ParticleSystem ps = dist::uniform_cube(300 + 100 * t, 42 + t);
    ASSERT_TRUE(svc.try_register_tenant(names[t], ps, {}, tenant_options()).ok());
  }
  std::vector<service::EvalService::Ticket> tickets;
  for (std::uint64_t t = 0; t < 2; ++t) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      auto ticket = svc.try_submit(names[t], charges_for(300 + 100 * t, 10 * t + i));
      ASSERT_TRUE(ticket.ok());
      tickets.push_back(std::move(ticket).value());
    }
  }
  while (svc.pump() > 0) {
  }
  for (auto& ticket : tickets) ASSERT_TRUE(ticket.wait().ok());

  std::size_t submits = 0;
  std::size_t serves = 0;
  std::size_t batches = 0;
  for (const rt::RequestRecord& record : rt::records()) {
    const std::string api = record.api;
    submits += api == "service_submit" ? 1 : 0;
    serves += api == "service_serve" ? 1 : 0;
    batches += api == "evaluate_batch" ? 1 : 0;
  }
  EXPECT_EQ(submits, 16u);
  EXPECT_EQ(serves, 16u);
  EXPECT_GT(batches, 0u);
  const auto count = [](const char* name) {
    return obs::registry().snapshot().counters.at(name);
  };
  EXPECT_EQ(count(obs::metric::kTelemetryRequests), 18u);
  EXPECT_EQ(obs::registry().snapshot().histograms.at(obs::metric::kTelemetryRequestSeconds).total,
            18u);

  // A rejected submission has no serve record: its own record counts.
  EXPECT_FALSE(svc.try_submit("no-such-tenant", charges_for(300, 1)).ok());
  EXPECT_EQ(count(obs::metric::kTelemetryRequests), 19u);
  EXPECT_EQ(count(obs::metric::kTelemetryErrors), 1u);
}

TEST_F(ServiceTraceTest, PerTenantLatencySummarySurfacesInStateJson) {
  enable_tracing(/*seed=*/1, /*sample_rate=*/0.0);
  const ParticleSystem ps = dist::uniform_cube(500, 9);
  service::EvalService svc(
      service::EvalService::Options{.start_scheduler = false});
  service::EvalService::TenantOptions topt = tenant_options();
  topt.latency_slo_seconds = 30.0;
  ASSERT_TRUE(svc.try_register_tenant("alpha", ps, {}, topt).ok());
  auto ticket = svc.try_submit("alpha", charges_for(ps.size(), 5));
  ASSERT_TRUE(ticket.ok());
  ASSERT_EQ(svc.pump(), 1u);
  ASSERT_TRUE(ticket.value().wait().ok());

  const obs::Json doc = svc.state_json();
  ASSERT_EQ(doc.at("tenants").size(), 1u);
  const obs::Json& tenant = doc.at("tenants").at(0);
  EXPECT_EQ(tenant.at("latency_slo_seconds").as_double(), 30.0);
  const obs::Json& latency = tenant.at("latency");
  EXPECT_EQ(latency.at("count").as_int(), 1);
  EXPECT_GT(latency.at("mean_seconds").as_double(), 0.0);
  EXPECT_GT(latency.at("p50_seconds").as_double(), 0.0);
  EXPECT_GE(latency.at("p99_seconds").as_double(),
            latency.at("p50_seconds").as_double());

  // The tenant's latency objective joins the SLO rule set.
  bool saw_p99_rule = false;
  for (const obs::slo::Rule& rule : svc.slo_rules()) {
    if (rule.name == "service-latency-p99-alpha") saw_p99_rule = true;
  }
  EXPECT_TRUE(saw_p99_rule);
}

/// One blocking GET against the service's loopback endpoint; returns the
/// raw response text (status line + headers + body).
std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[2048];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string body_of(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string() : response.substr(split + 4);
}

TEST_F(ServiceTraceTest, HttpEndpointServesAllObservabilityRoutes) {
  enable_tracing(/*seed=*/1, /*sample_rate=*/0.0);
  const ParticleSystem ps = dist::uniform_cube(400, 7);
  service::EvalService svc(
      service::EvalService::Options{.start_scheduler = false});
  service::EvalService::TenantOptions topt = tenant_options();
  topt.latency_slo_seconds = 1e-9;  // force a retained trace for /traces
  ASSERT_TRUE(svc.try_register_tenant("t", ps, {}, topt).ok());
  auto ticket = svc.try_submit("t", charges_for(ps.size(), 1));
  ASSERT_TRUE(ticket.ok());
  ASSERT_EQ(svc.pump(), 1u);
  ASSERT_TRUE(ticket.value().wait().ok());

  const auto port = svc.start_http(0);
  ASSERT_TRUE(port.ok());
  ASSERT_NE(port.value(), 0);
  EXPECT_EQ(svc.http_port(), port.value());
  // Starting twice while running is a typed error, not a crash.
  EXPECT_FALSE(svc.start_http(0).ok());

  const std::string state = http_get(port.value(), "/state");
  EXPECT_NE(state.find("HTTP/1.1 200"), std::string::npos);
  const obs::Json state_doc = obs::Json::parse(body_of(state));
  EXPECT_EQ(state_doc.at("schema").as_string(), "treecode-service/v1");
  EXPECT_EQ(state_doc.at("http_port").as_int(),
            static_cast<std::int64_t>(port.value()));

  const std::string metrics = http_get(port.value(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(body_of(metrics).find("# EOF"), std::string::npos);

  const std::string health = http_get(port.value(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1"), std::string::npos);
  const obs::Json health_doc = obs::Json::parse(body_of(health));
  EXPECT_TRUE(health_doc.at("status").as_string() == "ok" ||
              health_doc.at("status").as_string() == "breaching");

  const std::string traces = http_get(port.value(), "/traces?n=8");
  EXPECT_NE(traces.find("HTTP/1.1 200"), std::string::npos);
  const std::string trace_body = body_of(traces);
  ASSERT_FALSE(trace_body.empty());
  const obs::Json first_line =
      obs::Json::parse(trace_body.substr(0, trace_body.find('\n')));
  EXPECT_EQ(first_line.at("schema").as_string(), "treecode-trace/v1");

  svc.stop_http();
  EXPECT_EQ(svc.http_port(), 0);
  svc.stop_http();  // idempotent
}

TEST_F(ServiceTraceTest, RetainedSetIsBitwiseDeterministicAcrossThreadCounts) {
  // The same pump-driven workload, varying only the session's worker
  // thread count. Ids are minted exclusively on driver threads and the
  // sampling coin hashes the trace id, so the retained set — ids, order,
  // and reasons — must be bitwise-identical.
  const auto run_workload = [this](unsigned threads) {
    rt::reset();
    rt::SamplerConfig config;
    config.seed = 42;
    config.sample_rate = 0.5;
    rt::enable(config);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ids;
    std::vector<std::string> reasons;
    {
      const ParticleSystem ps = dist::uniform_cube(500, 11);
      service::EvalService svc(
          service::EvalService::Options{.start_scheduler = false});
      EXPECT_TRUE(
          svc.try_register_tenant("t", ps, {}, tenant_options(threads)).ok());
      std::vector<service::EvalService::Ticket> tickets;
      for (std::size_t c = 0; c < 8; ++c) {
        auto ticket = svc.try_submit("t", charges_for(ps.size(), 200 + c));
        EXPECT_TRUE(ticket.ok());
        if (ticket.ok()) tickets.push_back(std::move(ticket).value());
      }
      while (svc.pump() > 0) {
      }
      for (auto& ticket : tickets) EXPECT_TRUE(ticket.wait().ok());
      for (const rt::RetainedTrace& trace : rt::retained()) {
        ids.emplace_back(trace.trace_hi, trace.trace_lo);
        reasons.emplace_back(trace.reason);
      }
    }
    rt::reset();
    return std::make_pair(ids, reasons);
  };

  const auto baseline = run_workload(1);
  ASSERT_FALSE(baseline.first.empty());
  for (const unsigned threads : {2u, 4u}) {
    const auto other = run_workload(threads);
    EXPECT_EQ(other.first, baseline.first) << "threads=" << threads;
    EXPECT_EQ(other.second, baseline.second) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace treecode
