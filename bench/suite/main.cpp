// treecode_bench: the repository benchmark, one workload per process.
//
//   treecode_bench --workload <bem-solve|bh-cold|service-open|plan-churn>
//       [--seed 1] [--seconds 20] [--traced] [--smoke] --json-out <file>
//
// Writes one treecode-bench-report/v2 document (obs::RunReport, with
// provenance) whose "results" block holds the verdict (correct, attempted,
// failed), the end-to-end metrics, and — with --traced — the per-layer
// metrics and the span summary. Exit status: 0 correct, 1 incorrect (the
// report is still written), 2 usage or set-up error. run_bench.py turns the
// report into the one-line JSON result.

#include <array>
#include <cstdio>
#include <exception>
#include <string>

#include "harness.hpp"
#include "obs/report.hpp"
#include "probes.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

namespace {

using namespace treecode;
using namespace treecode::suite;

/// The end-to-end metrics every workload reports (BENCHMARK.json's
/// end_to_end block).
constexpr std::array<const char*, 6> kEndToEnd{
    "setup_s", "op_p50_s", "op_p90_s", "rel_error", "bytes_per_source", "peak_rss_mb"};

obs::Json metrics_json(const std::map<std::string, Report::Metric>& metrics) {
  obs::Json out = obs::Json::object();
  for (const auto& [name, m] : metrics) {
    obs::Json j = obs::Json::object();
    j["value"] = m.value;
    j["unit"] = m.unit;
    out[name] = std::move(j);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    const CliFlags flags(argc, argv,
                         {"workload", "seed", "seconds", "traced", "smoke", "json-out"});
    args.workload = flags.get_string("workload", "");
    args.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    args.seconds = flags.get_double("seconds", 20.0);
    args.traced = flags.get_bool("traced");
    args.smoke = flags.get_bool("smoke");
    args.json_out = flags.get_string("json-out", "");
    if (args.json_out.empty() || !(args.seconds > 0.0)) {
      throw std::invalid_argument("need --json-out and a positive --seconds");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "treecode_bench: %s\n", e.what());
    return 2;
  }

  void (*run)(const Args&, Tracer&, Report&) = nullptr;
  if (args.workload == "bem-solve") run = run_bem_solve;
  if (args.workload == "bh-cold") run = run_bh_cold;
  if (args.workload == "service-open") run = run_service_open;
  if (args.workload == "plan-churn") run = run_plan_churn;
  if (run == nullptr) {
    std::fprintf(stderr, "treecode_bench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  Tracer tracer(args.traced);
  Report report;
  try {
    run(args, tracer, report);
    if (args.traced) {
      probe_triad(args.smoke, tracer, report);
      const auto op_p50 = report.e2e().find("op_p50_s");
      if (op_p50 != report.e2e().end()) {
        report.set_layer("trace.op_p50_s", op_p50->second.value, "s");
      }
      finish_layers(report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "treecode_bench: %s: %s\n", args.workload.c_str(), e.what());
    return 2;
  }
  for (const char* name : kEndToEnd) {
    if (report.e2e().count(name) == 0) report.fail(std::string("metric missing: ") + name);
  }
  if (report.attempted == 0) report.fail("no op completed in the timed phase");

  obs::RunReport run_report("treecode_bench");
  obs::Json& config = run_report.config();
  config["workload"] = args.workload;
  config["seed"] = args.seed;
  config["seconds"] = args.seconds;
  config["traced"] = args.traced;
  config["smoke"] = args.smoke;
  config["threads"] = static_cast<std::uint64_t>(kThreads);
  obs::Json& results = run_report.results();
  const bool correct = report.failed == 0;
  results["correct"] = correct;
  results["attempted"] = report.attempted;
  results["failed"] = report.failed;
  results["valid"] = report.valid;
  obs::Json failures = obs::Json::array();
  for (const std::string& f : report.failures()) failures.push_back(f);
  results["failures"] = std::move(failures);
  results["e2e"] = metrics_json(report.e2e());
  results["layers"] = metrics_json(report.layers());
  results["details"] = report.details;
  results["spans"] = tracer.summary_json();
  run_report.write(args.json_out);

  std::printf("%s seed %llu: %s, %llu ops, %llu failed\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), correct ? "correct" : "INCORRECT",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const std::string& f : report.failures()) std::printf("  failure: %s\n", f.c_str());
  for (const auto& [name, m] : report.e2e()) {
    std::printf("  %-18s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  return correct ? 0 : 1;
}
