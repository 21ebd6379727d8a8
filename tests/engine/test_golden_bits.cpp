// Characterization test: pins the exact output bits of every evaluation
// path. The other engine tests compare paths with each other, so a change
// that shifted every path the same way would pass them; this one compares
// each path with recorded hashes.
//
// Each case hashes the bit patterns of potentials, error bounds and
// gradients plus the deterministic EvalStats counts, at threads {1, 2, 4}.
// The build uses no -march or fast-math, so the hashes hold across x86-64
// hosts; other architectures skip. The compiled cases also pin their
// durable bytes (plan entries, plan and governed bytes) in a second table,
// kept out of the hash, so a memory-layout change fails on its own.
//
// Re-recording (only for a deliberate change of the arithmetic or layout): run
//   ./build/tests/test_engine --gtest_filter='GoldenBits.*'
// and paste the printed table.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/barnes_hut.hpp"
#include "core/dipole_barnes_hut.hpp"
#include "dist/distributions.hpp"
#include "engine/eval_session.hpp"
#include "multipole/expansion.hpp"
#include "parallel/thread_pool.hpp"
#include "tree/octree.hpp"

namespace treecode {
namespace {

class BitHash {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(T));
  }
  template <typename T>
  void array(const std::vector<T>& v) {
    value(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
  void result(const EvalResult& r) {
    array(r.potential);
    array(r.error_bound);
    array(r.gradient);
    const EvalStats& s = r.stats;
    value(s.multipole_terms);
    value(s.m2p_count);
    value(s.p2p_pairs);
    value(s.budget_refinements);
    value(s.budget_refinements_leaf);
    value(s.max_interaction_bound);
    value(s.min_degree_used);
    value(s.max_degree_used);
    value(s.reference_charge);
    value(s.audit_samples);
    value(s.audit_bound_violations);
    value(s.audit_max_tightness);
    value(s.audit_mean_tightness);
    value(static_cast<int>(s.served_rung));
    value(static_cast<int>(s.outcome));
    value(s.targets_served);
    value(s.work.total_work());
  }
  [[nodiscard]] std::uint64_t digest() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// Durable bytes of a compiled case. They sit beside the hash, not in it:
// a layout change that keeps every output bit (a wider entry, an extra
// per-target array) moves these and nothing else.
struct PlanBytes {
  std::size_t entries = 0;   // plan->entries.size()
  std::size_t plan = 0;      // plan->memory_bytes()
  std::size_t governed = 0;  // session.governor().used() after the last evaluate
  bool operator==(const PlanBytes&) const = default;
};

struct Outcome {
  std::uint64_t hash;
  PlanBytes bytes{};
};

PlanBytes plan_bytes(const engine::EvalSession& session, const engine::EvalPlan& plan) {
  return {plan.entries.size(), plan.memory_bytes(), session.governor().used()};
}

ParticleSystem clustered() {
  return dist::overlapped_gaussians(1500, 3, 19, 0.08, dist::ChargeModel::kMixedSign);
}

std::vector<Vec3> targets(std::size_t n = 160) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> u(-0.2, 1.2);
  std::vector<Vec3> t(n);
  for (Vec3& x : t) x = {u(rng), u(rng), u(rng)};
  return t;
}

std::vector<double> charges(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-1.5, 1.5);
  std::vector<double> q(n);
  for (double& v : q) v = u(rng);
  return q;
}

EvalConfig config(unsigned threads) {
  EvalConfig cfg;
  cfg.alpha = 0.5;
  cfg.degree = 4;
  cfg.mode = DegreeMode::kAdaptive;
  cfg.threads = threads;
  cfg.block_size = 16;
  cfg.track_error_bounds = true;
  return cfg;
}

Outcome bh_case(const EvalConfig& cfg, bool self) {
  const Tree tree(clustered());
  ThreadPool pool(cfg.threads);
  const BarnesHutEvaluator bh(tree, cfg, &pool);
  const EvalResult r = self ? bh.evaluate(pool) : bh.evaluate_at(pool, targets());
  // The fixtures must exercise what the case names: demotions and samples.
  if (cfg.enforce_budget) {
    EXPECT_GT(r.stats.budget_refinements, 0u);
  }
  if (cfg.audit_samples > 0) {
    EXPECT_GT(r.stats.audit_samples, 0u);
  }
  BitHash h;
  h.result(r);
  return {h.digest()};
}

Outcome replay_case(const EvalConfig& cfg, bool self) {
  const ParticleSystem ps = clustered();
  engine::EvalSession session(Tree(ps), cfg);
  const auto plan = self ? session.try_compile_self().value_or_throw()
                         : session.try_compile(targets()).value_or_throw();
  BitHash h;
  h.result(session.try_evaluate(*plan).value_or_throw());
  session.try_update_charges(charges(ps.size(), 404)).value_or_throw();
  h.result(session.try_evaluate(*plan).value_or_throw());
  return {h.digest(), plan_bytes(session, *plan)};
}

Outcome batch_case(unsigned threads, std::size_t k) {
  const ParticleSystem ps = clustered();
  engine::EvalSession session(Tree(ps), config(threads));
  const auto plan = session.try_compile(targets()).value_or_throw();
  std::vector<std::vector<double>> cols;
  std::vector<std::span<const double>> spans;
  for (std::size_t c = 0; c < k; ++c) cols.push_back(charges(ps.size(), 100 + c));
  for (const auto& c : cols) spans.emplace_back(c);
  BitHash h;
  for (const EvalResult& r : session.try_evaluate_batch(*plan, spans).value_or_throw()) {
    h.result(r);
  }
  return {h.digest(), plan_bytes(session, *plan)};
}

// Rung 1: a budget that affords the transient traversal multipoles but not
// the compiled plan (calibrated on an unbudgeted probe session). With 800
// targets the entry stream outweighs the per-node coefficients.
Outcome rung1_case(unsigned threads) {
  const ParticleSystem ps = clustered();
  const std::vector<Vec3> t = targets(800);
  const EvalConfig cfg = config(threads);
  engine::EvalSession probe(Tree(ps), cfg);
  const auto plan = probe.try_compile(t).value_or_throw();
  std::size_t traversal = 0;
  for (const int p : probe.degrees().degree) traversal += tri_size(p) * sizeof(Complex);
  EvalConfig budgeted = cfg;
  budgeted.memory_budget_bytes = (traversal + plan->memory_bytes()) / 2;
  engine::EvalSession session(Tree(ps), budgeted);
  const EvalResult r = session.try_evaluate_at(t).value_or_throw();
  EXPECT_EQ(r.stats.served_rung, ServeRung::kTraversal);
  BitHash h;
  h.result(r);
  return {h.digest()};
}

Outcome rung2_case(unsigned threads, bool self) {
  EvalConfig cfg = config(threads);
  cfg.compute_gradient = true;
  cfg.memory_budget_bytes = 1024;
  engine::EvalSession session(Tree(clustered()), cfg);
  const EvalResult r = (self ? session.try_evaluate() : session.try_evaluate_at(targets()))
                           .value_or_throw();
  EXPECT_EQ(r.stats.served_rung, ServeRung::kDirect);
  BitHash h;
  h.result(r);
  return {h.digest()};
}

Outcome dipole_case(unsigned threads) {
  const ParticleSystem ps = clustered();
  const Tree tree(ps);
  std::vector<Vec3> moments(tree.num_particles());
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (Vec3& m : moments) m = {u(rng), u(rng), u(rng)};
  ThreadPool pool(threads);
  EvalConfig cfg = config(threads);
  cfg.track_error_bounds = false;
  const DipoleBarnesHutEvaluator eval(tree, cfg, moments, &pool);
  BitHash h;
  h.result(eval.evaluate_at(pool, targets()));
  return {h.digest()};
}

struct GoldenCase {
  const char* name;
  std::function<Outcome(unsigned)> run;
};

std::vector<GoldenCase> golden_cases() {
  return {
      {"bh_self_fixed",
       [](unsigned t) {
         EvalConfig cfg = config(t);
         cfg.mode = DegreeMode::kFixed;
         return bh_case(cfg, true);
       }},
      {"bh_at_gradient",
       [](unsigned t) {
         EvalConfig cfg = config(t);
         cfg.compute_gradient = true;
         return bh_case(cfg, false);
       }},
      {"bh_at_budget",
       [](unsigned t) {
         EvalConfig cfg = config(t);
         cfg.enforce_budget = true;
         cfg.error_budget = 2e-3;
         return bh_case(cfg, false);
       }},
      {"bh_self_audit",
       [](unsigned t) {
         EvalConfig cfg = config(t);
         cfg.audit_samples = 24;
         cfg.audit_seed = 7;
         return bh_case(cfg, true);
       }},
      {"replay", [](unsigned t) { return replay_case(config(t), false); }},
      {"replay_self_budget",
       [](unsigned t) {
         EvalConfig cfg = config(t);
         cfg.enforce_budget = true;
         cfg.error_budget = 2e-3;
         return replay_case(cfg, true);
       }},
      {"replay_self_gradient_audit",
       [](unsigned t) {
         EvalConfig cfg = config(t);
         cfg.compute_gradient = true;
         cfg.audit_samples = 24;
         cfg.audit_seed = 7;
         return replay_case(cfg, true);
       }},
      {"batch_k1", [](unsigned t) { return batch_case(t, 1); }},
      {"batch_k3", [](unsigned t) { return batch_case(t, 3); }},
      {"batch_k8", [](unsigned t) { return batch_case(t, 8); }},
      {"rung1_traversal", [](unsigned t) { return rung1_case(t); }},
      {"rung2_direct_at", [](unsigned t) { return rung2_case(t, false); }},
      {"rung2_direct_self", [](unsigned t) { return rung2_case(t, true); }},
      {"dipole_at", [](unsigned t) { return dipole_case(t); }},
  };
}

struct Golden {
  const char* name;
  std::uint64_t hash;
};

// Re-recorded when the harmonics moved to the Cartesian recurrence (a
// deliberate rounding-level change: counts unchanged, every potential field
// within 1e-15 of its old maximum), and again when the ladder lost its
// basis rung (rungs renumbered 0, 1 -> 0; 2 -> 1; 3 -> 2; no output bit
// moved); see the file comment.
constexpr Golden kGolden[] = {
    {"bh_self_fixed", 0x5b1980837585b7a5ull},
    {"bh_at_gradient", 0x53e5e3bf34f276b2ull},
    {"bh_at_budget", 0x9ca334f559951b10ull},
    {"bh_self_audit", 0x39320d777a4bd0c2ull},
    {"replay", 0xa871f46eb40e54b4ull},
    {"replay_self_budget", 0x52a80fc7cbb9296aull},
    {"replay_self_gradient_audit", 0x53fc945e2d5d117eull},
    {"batch_k1", 0x212381600725e746ull},
    {"batch_k3", 0x0d716d48e19b43a4ull},
    {"batch_k8", 0x5d6db9b7efa77527ull},
    {"rung1_traversal", 0x9cfb6a135ad23503ull},
    {"rung2_direct_at", 0x7102650bda515169ull},
    {"rung2_direct_self", 0x7b067dd8d7b14d88ull},
    {"dipole_at", 0xaf1f46e30af4f19dull},
};

struct GoldenBytes {
  const char* name;
  PlanBytes bytes;
};

// Durable bytes of the compiled cases: entries, plan bytes, governed bytes.
// Re-record (paste the printed table) only with a deliberate change of the
// plan layout.
constexpr GoldenBytes kGoldenBytes[] = {
    {"replay", {4668, 64272, 219232}},
    {"replay_self_budget", {706096, 8535244, 8700908}},
    {"replay_self_gradient_audit", {183978, 2270364, 2484060}},
    {"batch_k1", {4668, 64272, 64272}},
    {"batch_k3", {4668, 64272, 64272}},
    {"batch_k8", {4668, 64272, 64272}},
};

TEST(GoldenBits, EveryPathMatchesItsRecordedHashAtThreads124) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "golden hashes are recorded for x86-64 floating point";
#endif
  const std::vector<GoldenCase> cases = golden_cases();
  ASSERT_EQ(cases.size(), std::size(kGolden));
  std::string table;
  bool all_match = true;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    ASSERT_STREQ(cases[c].name, kGolden[c].name);
    const std::uint64_t h1 = cases[c].run(1).hash;
    for (const unsigned threads : {2u, 4u}) {
      EXPECT_EQ(cases[c].run(threads).hash, h1)
          << cases[c].name << " differs between 1 and " << threads << " threads";
    }
    char line[96];
    std::snprintf(line, sizeof(line), "    {\"%s\", 0x%016llxull},\n", cases[c].name,
                  static_cast<unsigned long long>(h1));
    table += line;
    if (h1 != kGolden[c].hash) {
      all_match = false;
      ADD_FAILURE() << cases[c].name << ": output bits changed";
    }
  }
  if (!all_match) std::printf("current hashes:\n%s", table.c_str());
}

TEST(GoldenBits, CompiledCasesMatchTheirRecordedBytesAtThreads124) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "entry counts follow MAC decisions recorded for x86-64 floating point";
#endif
  const std::vector<GoldenCase> cases = golden_cases();
  std::string table;
  bool all_match = true;
  for (const GoldenBytes& golden : kGoldenBytes) {
    const auto c = std::find_if(cases.begin(), cases.end(), [&](const GoldenCase& g) {
      return std::string_view(g.name) == golden.name;
    });
    ASSERT_NE(c, cases.end()) << golden.name;
    const PlanBytes b1 = c->run(1).bytes;
    for (const unsigned threads : {2u, 4u}) {
      EXPECT_TRUE(c->run(threads).bytes == b1)
          << golden.name << " bytes differ between 1 and " << threads << " threads";
    }
    char line[160];
    std::snprintf(line, sizeof(line), "    {\"%s\", {%zu, %zu, %zu}},\n", golden.name,
                  b1.entries, b1.plan, b1.governed);
    table += line;
    if (!(b1 == golden.bytes)) {
      all_match = false;
      ADD_FAILURE() << golden.name << ": durable bytes changed";
    }
  }
  if (!all_match) std::printf("current bytes:\n%s", table.c_str());
}

}  // namespace
}  // namespace treecode
