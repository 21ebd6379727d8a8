#!/usr/bin/env python3
"""Per-rule self-tests for treecode-analyze.

Every rule is exercised with a synthetic translation unit in three
states — violating (the rule fires), clean (the idiomatic fix, no
finding), suppressed (the violation plus an ``// analyze-allow`` comment,
finding present but suppressed) — through the token frontend and the
lexical pass. A rule may have several cases (``rule[variant]`` keys).
The lock-order-cycle case is genuinely cross-TU: the A-before-B edge
lives in one file, the B-before-A edge in another, and the cycle only
exists in the merged acquisition graph. The registry rules carry a
fixture registry header in their TU set.

When the libclang frontend is importable the violating TUs are re-run
through it as well, asserting the same rule fires: the two frontends must
stay interchangeable (same fact model, same rule outcomes).

Run directly or via ctest (analyze_rule_matrix).
"""

from __future__ import annotations

import os
import re
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import frontend_tokens  # noqa: E402
import lexical  # noqa: E402
import rules as rules_mod  # noqa: E402
from model import Finding  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _token_findings(sources: dict[str, str], rule: str) -> list[Finding]:
    facts = [lexical.attach(frontend_tokens.extract(rel, text), text)
             for rel, text in sorted(sources.items())]
    return rules_mod.run_rules(facts, {rule})


def _rule(case: str) -> str:
    """Rule name of a MATRIX key (``rule`` or ``rule[variant]``)."""
    return case.split("[", 1)[0]


# --- the per-rule TU matrix -----------------------------------------------
# case -> {"bad": {rel: text}, "clean": {rel: text}, "suppressed": {rel: text}}

FP_UNORDERED_BAD = """
#include <unordered_map>
class Accumulator {
 public:
  double total() const;
 private:
  std::unordered_map<int, double> weights_;
};
double Accumulator::total() const {
  double sum = 0.0;
  for (const auto& kv : weights_) {
    sum += kv.second;
  }
  return sum;
}
"""

FP_UNORDERED_CLEAN = FP_UNORDERED_BAD.replace(
    "#include <unordered_map>", "#include <map>").replace(
    "std::unordered_map", "std::map")

FP_UNORDERED_SUPPRESSED = FP_UNORDERED_BAD.replace(
    "    sum += kv.second;",
    "    // analyze-allow(fp-unordered-accumulation)\n"
    "    sum += kv.second;")

FP_ATOMIC_BAD = """
#include <atomic>
class Tally {
 public:
  void add(double w);
 private:
  std::atomic<double> total_;
};
void Tally::add(double w) {
  total_ += w;
}
"""

FP_ATOMIC_CLEAN = FP_ATOMIC_BAD.replace(
    "std::atomic<double> total_;", "std::atomic<long> total_;").replace(
    "void add(double w);", "void add(long w);").replace(
    "void Tally::add(double w)", "void Tally::add(long w)")

FP_ATOMIC_SUPPRESSED = FP_ATOMIC_BAD.replace(
    "  total_ += w;",
    "  // analyze-allow(fp-atomic-accumulation)\n  total_ += w;")

FP_POLICY_BAD = """
#include <execution>
#include <numeric>
#include <vector>
void reduce_all(const std::vector<double>& v, double* out) {
  *out = std::reduce(std::execution::par, v.begin(), v.end(), 0.0);
}
"""

FP_POLICY_CLEAN = FP_POLICY_BAD.replace("std::execution::par, ", "")

FP_POLICY_SUPPRESSED = FP_POLICY_BAD.replace(
    "  *out = std::reduce",
    "  // analyze-allow(fp-parallel-reduction)\n  *out = std::reduce")

FP_PARFOR_BAD = """
void sweep(int n) {
  double total = 0.0;
  parallel_for(0, n, [&](int i) {
    total += 1.0;
  });
  (void)total;
}
"""

FP_PARFOR_CLEAN = """
void sweep(int n, double* out) {
  parallel_for(0, n, [&](int i) {
    double local = 0.0;
    local += 1.0;
    out[i] = local;
  });
}
"""

FP_PARFOR_SUPPRESSED = FP_PARFOR_BAD.replace(
    "    total += 1.0;",
    "    // analyze-allow(fp-parallel-for-accumulation)\n    total += 1.0;")

GOVERNOR_BAD = """
class Cache {
 public:
  bool grow(unsigned long bytes);
 private:
  ResourceGovernor governor_;
};
bool Cache::grow(unsigned long bytes) {
  if (!governor_.try_reserve(bytes, "cache")) {
    return false;
  }
  governor_.release(bytes);
  return true;
}
"""

GOVERNOR_CLEAN = """
class Cache {
 public:
  bool grow(unsigned long bytes);
 private:
  ResourceGovernor governor_;
};
bool Cache::grow(unsigned long bytes) {
  ResourceGovernor::Reservation held = governor_.reserve(bytes, "cache");
  return static_cast<bool>(held);
}
"""

GOVERNOR_SUPPRESSED = GOVERNOR_BAD.replace(
    "  if (!governor_.try_reserve",
    "  // analyze-allow(governor-raii)\n  if (!governor_.try_reserve").replace(
    "  governor_.release(bytes);",
    "  // analyze-allow(governor-raii)\n  governor_.release(bytes);")

THROW_BAD = """
#include <stdexcept>
class FakeEngine {
 public:
  bool try_run();
 private:
  void check_invariants();
};
bool FakeEngine::try_run() {
  check_invariants();
  return true;
}
void FakeEngine::check_invariants() {
  throw std::runtime_error("bad");
}
"""

THROW_CLEAN = THROW_BAD.replace(
    "  check_invariants();\n  return true;",
    "  try {\n    check_invariants();\n  } catch (...) {\n"
    "    return false;\n  }\n  return true;")

# Suppression on a call edge of the reported path, not the throw line:
# the path rules honor allows on any reported line.
THROW_SUPPRESSED = THROW_BAD.replace(
    "  check_invariants();",
    "  // analyze-allow(engine-throw-path)\n  check_invariants();")

_LOCK_CLASSES = """
#include <mutex>
class Beta;
class Alpha {
 public:
  void poke();
  void alpha_work();
 private:
  std::mutex mu_;
  Beta* peer_;
};
class Beta {
 public:
  void poke();
  void beta_work();
 private:
  std::mutex mu_;
  Alpha* peer_;
};
"""

LOCK_CYCLE_A = _LOCK_CLASSES + """
void Alpha::poke() {
  std::lock_guard<std::mutex> lk(mu_);
  peer_->beta_work();
}
void Alpha::alpha_work() {
  std::lock_guard<std::mutex> lk(mu_);
}
"""

LOCK_CYCLE_B = _LOCK_CLASSES + """
void Beta::poke() {
  std::lock_guard<std::mutex> lk(mu_);
  peer_->alpha_work();
}
void Beta::beta_work() {
  std::lock_guard<std::mutex> lk(mu_);
}
"""

# One-directional: Beta never calls back into Alpha under its lock.
LOCK_CYCLE_B_CLEAN = _LOCK_CLASSES + """
void Beta::poke() {
  peer_->alpha_work();
}
void Beta::beta_work() {
  std::lock_guard<std::mutex> lk(mu_);
}
"""

LOCK_CYCLE_A_SUPPRESSED = LOCK_CYCLE_A.replace(
    "  peer_->beta_work();",
    "  // analyze-allow(lock-order-cycle)\n  peer_->beta_work();")

LOCK_PAR_BAD = """
#include <mutex>
class Sweeper {
 public:
  void sweep(int n);
 private:
  std::mutex mu_;
};
void Sweeper::sweep(int n) {
  std::lock_guard<std::mutex> lk(mu_);
  parallel_for(0, n, [&](int i) {
    (void)i;
  });
}
"""

LOCK_PAR_CLEAN = LOCK_PAR_BAD.replace(
    "  std::lock_guard<std::mutex> lk(mu_);",
    "  {\n    std::lock_guard<std::mutex> lk(mu_);\n  }")

LOCK_PAR_SUPPRESSED = LOCK_PAR_BAD.replace(
    "  parallel_for(0, n,",
    "  // analyze-allow(lock-across-parallel)\n  parallel_for(0, n,")

TELE_BAD = """
class FakeEngine {
 public:
  bool try_poll();
 private:
  bool ready_ = false;
};
bool FakeEngine::try_poll() {
  if (!ready_) {
    return false;
  }
  emit_request();
  return true;
}
"""

TELE_CLEAN = """
class FakeEngine {
 public:
  bool try_poll();
 private:
  bool ready_ = false;
};
bool FakeEngine::try_poll() {
  emit_request();
  if (!ready_) {
    return false;
  }
  return true;
}
"""

TELE_SUPPRESSED = TELE_BAD.replace(
    "    return false;",
    "    // analyze-allow(try-telemetry-exit)\n    return false;")

COUNT_BAD = """
namespace obs {
bool enabled();
void emit_request() {
  if (!enabled()) {
    return;
  }
}
}
"""

COUNT_CLEAN = """
namespace obs {
bool enabled();
void emit_request() {
  registry().counter(obs::metric::kEngineRequests).add(1);
  if (!enabled()) {
    return;
  }
}
}
"""

COUNT_SUPPRESSED = COUNT_BAD.replace(
    "void emit_request() {",
    "// analyze-allow(engine-request-count)\nvoid emit_request() {")


# A [[noreturn]] helper is still a function definition: its throw must
# reach the entry point.
THROW_NORETURN_BAD = """
#include <stdexcept>
class FakeEngine {
 public:
  bool try_run() {
    fail_hard();
    return true;
  }
 private:
  [[noreturn]] static void fail_hard() { throw std::runtime_error("bad"); }
};
"""

THROW_NORETURN_CLEAN = THROW_NORETURN_BAD.replace(
    "    fail_hard();\n    return true;",
    "    try {\n      fail_hard();\n    } catch (...) {\n      return false;\n"
    "    }\n    return true;")

THROW_NORETURN_SUPPRESSED = THROW_NORETURN_BAD.replace(
    "    fail_hard();",
    "    // analyze-allow(engine-throw-path)\n    fail_hard();")

# --- source-hygiene rules (lexical facts) ---------------------------------

NEW_BAD = """
int* make_counter() {
  int* p = new int(0);
  return p;
}
"""

# make_unique, and placement new (construction into owned storage).
NEW_CLEAN = """
#include <memory>
#include <new>
std::unique_ptr<int> make_counter(void* buf) {
  ::new (buf) int(1);
  return std::make_unique<int>(0);
}
"""

NEW_SUPPRESSED = NEW_BAD.replace(
    "  int* p = new int(0);",
    "  // analyze-allow(naked-new)\n  int* p = new int(0);")

MALLOC_BAD = """
#include <cstdlib>
void scratch() {
  void* p = std::malloc(64);
  std::free(p);
}
"""

MALLOC_CLEAN = """
#include <vector>
void scratch() {
  std::vector<char> buf(64);
}
"""

MALLOC_SUPPRESSED = MALLOC_BAD.replace(
    "std::malloc(64);", "std::malloc(64);  // analyze-allow(naked-new)").replace(
    "std::free(p);", "std::free(p);  // analyze-allow(naked-new)")

POW_BAD = """
#include <cmath>
double term(double r, int n) {
  return std::pow(r, n + 1);
}
"""

POW_CLEAN = """
#include <cmath>
double term(double r, int n) {
  return std::pow(r, 0.5) * ipow(r, n + 1) * std::pow(r, 1e-3);
}
"""

POW_SUPPRESSED = POW_BAD.replace(
    "std::pow(r, n + 1);",
    "std::pow(r, n + 1);  // analyze-allow(pow-integer-exponent)")

SPAN_REGISTRY_FIXTURE = """#pragma once
namespace treecode::obs::span {
inline constexpr const char* kTreeBuild = "time.tree_build";
inline constexpr const char* kFakeWorker = "fake.worker";
}
"""

SPAN_REGISTRY_DUP = SPAN_REGISTRY_FIXTURE.replace(
    "}\n", 'inline constexpr const char* kTreeBuildAlias = "time.tree_build";\n}\n')

SPAN_REGISTRY_DUP_SUPPRESSED = SPAN_REGISTRY_DUP.replace(
    '"time.tree_build";\n}', '"time.tree_build";  // analyze-allow(span-registry)\n}')

SPAN_LITERAL_BAD = """
void build() {
  obs::ScopedTimer timer("time.tree_build");
}
"""

SPAN_LITERAL_CLEAN = """
void build(int n, Body body, Clock t0, Clock t1) {
  obs::ScopedTimer timer(obs::span::kTreeBuild);
  reqtrace::record_timeline_span(span::kFakeWorker, t0, t1);
  parallel_for(0, n, body);
  parallel_for_blocked(0, n, 64, body, nullptr);
}
"""

SPAN_LITERAL_SUPPRESSED = SPAN_LITERAL_BAD.replace(
    "  obs::ScopedTimer",
    "  // analyze-allow(span-registry)\n  obs::ScopedTimer")

SPAN_UNDEFINED_BAD = """
void record(RequestContext ctx, Clock t0, Clock t1) {
  reqtrace::record_span(ctx, obs::span::kMissing, t0, t1);
}
"""

SPAN_UNDEFINED_CLEAN = SPAN_UNDEFINED_BAD.replace("kMissing", "kFakeWorker")

SPAN_UNDEFINED_SUPPRESSED = SPAN_UNDEFINED_BAD.replace(
    "  reqtrace::record_span",
    "  // analyze-allow(span-registry)\n  reqtrace::record_span")

SPAN_PARFOR_BAD = """
void sweep(int n, Body body) {
  parallel_for(0, n, body, nullptr, "fake.worker");
}
"""

SPAN_PARFOR_CLEAN = SPAN_PARFOR_BAD.replace(
    '"fake.worker"', "obs::span::kFakeWorker")

SPAN_PARFOR_SUPPRESSED = SPAN_PARFOR_BAD.replace(
    '"fake.worker");', '"fake.worker");  // analyze-allow(span-registry)')

SPAN_EVENT_BAD = """
void evict(double bytes) {
  reqtrace::record_event("fake.worker", bytes);
}
"""

SPAN_EVENT_CLEAN = """
void evict(double bytes, ErrorCode code) {
  reqtrace::record_event(obs::span::kFakeWorker, bytes);
  reqtrace::trigger(error_code_name(code));
}
"""

SPAN_EVENT_SUPPRESSED = SPAN_EVENT_BAD.replace(
    '"fake.worker", bytes);',
    '"fake.worker", bytes);  // analyze-allow(span-registry)')

METRIC_REGISTRY_FIXTURE = """#pragma once
namespace treecode::obs::metric {
inline constexpr const char* kEngineRequests = "engine.requests";
inline constexpr const char* kPlanHits = "engine.plan_hits";
}
"""

METRIC_REGISTRY_DUP = METRIC_REGISTRY_FIXTURE.replace(
    "}\n", 'inline constexpr const char* kPlanHitsAlias = "engine.plan_hits";\n}\n')

METRIC_REGISTRY_DUP_SUPPRESSED = METRIC_REGISTRY_DUP.replace(
    '"engine.plan_hits";\n}',
    '"engine.plan_hits";  // analyze-allow(metric-name-literal)\n}')

METRIC_LITERAL_BAD = """
void count() {
  registry().counter("engine.requests").add(1);
}
"""

# Registry constants, and a computed name (snprintf fan-out).
METRIC_LITERAL_CLEAN = """
void count(const char* level_name) {
  registry().counter(obs::metric::kEngineRequests).add(1);
  obs::flush_counts(level_name, 3);
}
"""

METRIC_LITERAL_SUPPRESSED = METRIC_LITERAL_BAD.replace(
    "  registry()",
    "  // analyze-allow(metric-name-literal)\n  registry()")

METRIC_UNDEFINED_BAD = """
void set_hits(Registry* reg) {
  reg->gauge(metric::kMissing).set(1.0);
}
"""

METRIC_UNDEFINED_CLEAN = METRIC_UNDEFINED_BAD.replace("kMissing", "kPlanHits")

METRIC_UNDEFINED_SUPPRESSED = METRIC_UNDEFINED_BAD.replace(
    ".set(1.0);", ".set(1.0);  // analyze-allow(metric-name-literal)")

ATOMIC_BAD = """
#include <atomic>
int claim(std::atomic<int>& next) {
  return next.fetch_add(1);
}
"""

ATOMIC_CLEAN = ATOMIC_BAD.replace("fetch_add(1)",
                                  "fetch_add(1, std::memory_order_relaxed)")

ATOMIC_SUPPRESSED = ATOMIC_BAD.replace(
    "  return next",
    "  // analyze-allow(non-relaxed-atomic)\n  return next")

EVAL_BAD = """EvalResult evaluate_fake(const ParticleSystem& ps, const EvalConfig& cfg) {
  return run(ps, cfg);
}
"""

EVAL_CLEAN = EVAL_BAD.replace("  return run", "  cfg.validate();\n  return run")

EVAL_SUPPRESSED = "// analyze-allow(evaluator-validates)\n" + EVAL_BAD

PRAGMA_BAD = """inline int answer() { return 42; }
"""

PRAGMA_CLEAN = "#pragma once\n" + PRAGMA_BAD

PRAGMA_SUPPRESSED = "// analyze-allow(header-hygiene)\n" + PRAGMA_BAD

INCLUDE_BAD = """#include <vector>
#include "util/expected.hpp"
#include <vector>
"""

# The same name with different delimiters is two targets.
INCLUDE_CLEAN = """#include <vector>
#include "vector"
"""

INCLUDE_SUPPRESSED = INCLUDE_BAD.replace(
    '"\n#include <vector>\n',
    '"\n#include <vector>  // analyze-allow(header-hygiene)\n')

RAW_THROW_BAD = """
#include <stdexcept>
void fail_fast(int code) {
  if (code != 0) {
    throw std::runtime_error("bad code");
  }
}
"""

RAW_THROW_CLEAN = """
Expected<int> fail_fast(int code) {
  if (code != 0) {
    return Error{ErrorCode::kInvalidInput, "bad code"};
  }
  return value_or_throw(Expected<int>(0));
}
"""

RAW_THROW_SUPPRESSED = RAW_THROW_BAD.replace(
    "    throw", "    // analyze-allow(engine-returns-expected)\n    throw")

SPANS_HPP = "src/obs/spans.hpp"
METRICS_HPP = "src/obs/metric_names.hpp"


MATRIX: dict[str, dict[str, dict[str, str]]] = {
    "fp-unordered-accumulation": {
        "bad": {"src/fake/unordered.cpp": FP_UNORDERED_BAD},
        "clean": {"src/fake/unordered.cpp": FP_UNORDERED_CLEAN},
        "suppressed": {"src/fake/unordered.cpp": FP_UNORDERED_SUPPRESSED},
    },
    "fp-atomic-accumulation": {
        "bad": {"src/fake/atomic.cpp": FP_ATOMIC_BAD},
        "clean": {"src/fake/atomic.cpp": FP_ATOMIC_CLEAN},
        "suppressed": {"src/fake/atomic.cpp": FP_ATOMIC_SUPPRESSED},
    },
    "fp-parallel-reduction": {
        "bad": {"src/fake/policy.cpp": FP_POLICY_BAD},
        "clean": {"src/fake/policy.cpp": FP_POLICY_CLEAN},
        "suppressed": {"src/fake/policy.cpp": FP_POLICY_SUPPRESSED},
    },
    "fp-parallel-for-accumulation": {
        "bad": {"src/fake/parfor.cpp": FP_PARFOR_BAD},
        "clean": {"src/fake/parfor.cpp": FP_PARFOR_CLEAN},
        "suppressed": {"src/fake/parfor.cpp": FP_PARFOR_SUPPRESSED},
    },
    "governor-raii": {
        "bad": {"src/fake/governor.cpp": GOVERNOR_BAD},
        "clean": {"src/fake/governor.cpp": GOVERNOR_CLEAN},
        "suppressed": {"src/fake/governor.cpp": GOVERNOR_SUPPRESSED},
    },
    "engine-throw-path": {
        "bad": {"src/engine/fake_throw.cpp": THROW_BAD},
        "clean": {"src/engine/fake_throw.cpp": THROW_CLEAN},
        "suppressed": {"src/engine/fake_throw.cpp": THROW_SUPPRESSED},
    },
    "lock-order-cycle": {
        "bad": {"src/fake/lock_a.cpp": LOCK_CYCLE_A,
                "src/fake/lock_b.cpp": LOCK_CYCLE_B},
        "clean": {"src/fake/lock_a.cpp": LOCK_CYCLE_A,
                  "src/fake/lock_b.cpp": LOCK_CYCLE_B_CLEAN},
        "suppressed": {"src/fake/lock_a.cpp": LOCK_CYCLE_A_SUPPRESSED,
                       "src/fake/lock_b.cpp": LOCK_CYCLE_B},
    },
    "lock-across-parallel": {
        "bad": {"src/fake/lock_par.cpp": LOCK_PAR_BAD},
        "clean": {"src/fake/lock_par.cpp": LOCK_PAR_CLEAN},
        "suppressed": {"src/fake/lock_par.cpp": LOCK_PAR_SUPPRESSED},
    },
    "try-telemetry-exit": {
        "bad": {"src/engine/fake_tele.cpp": TELE_BAD},
        "clean": {"src/engine/fake_tele.cpp": TELE_CLEAN},
        "suppressed": {"src/engine/fake_tele.cpp": TELE_SUPPRESSED},
    },
    "engine-request-count": {
        "bad": {"src/obs/fake_emit.cpp": COUNT_BAD},
        "clean": {"src/obs/fake_emit.cpp": COUNT_CLEAN},
        "suppressed": {"src/obs/fake_emit.cpp": COUNT_SUPPRESSED},
    },
    "engine-throw-path[noreturn]": {
        "bad": {"src/engine/fake_noreturn.hpp": THROW_NORETURN_BAD},
        "clean": {"src/engine/fake_noreturn.hpp": THROW_NORETURN_CLEAN},
        "suppressed": {"src/engine/fake_noreturn.hpp": THROW_NORETURN_SUPPRESSED},
    },
    "naked-new": {
        "bad": {"src/fake/alloc.cpp": NEW_BAD},
        "clean": {"src/fake/alloc.cpp": NEW_CLEAN},
        "suppressed": {"src/fake/alloc.cpp": NEW_SUPPRESSED},
    },
    "naked-new[malloc]": {
        "bad": {"src/fake/alloc.cpp": MALLOC_BAD},
        "clean": {"src/fake/alloc.cpp": MALLOC_CLEAN},
        "suppressed": {"src/fake/alloc.cpp": MALLOC_SUPPRESSED},
    },
    "pow-integer-exponent": {
        "bad": {"src/multipole/fake_pow.cpp": POW_BAD},
        # Outside the hot kernels an integer exponent is allowed.
        "clean": {"src/multipole/fake_pow.cpp": POW_CLEAN,
                  "src/bem/fake_pow.cpp": POW_BAD},
        "suppressed": {"src/multipole/fake_pow.cpp": POW_SUPPRESSED},
    },
    "span-registry": {
        "bad": {SPANS_HPP: SPAN_REGISTRY_FIXTURE,
                "src/fake/spans.cpp": SPAN_LITERAL_BAD},
        "clean": {SPANS_HPP: SPAN_REGISTRY_FIXTURE,
                  "src/fake/spans.cpp": SPAN_LITERAL_CLEAN},
        "suppressed": {SPANS_HPP: SPAN_REGISTRY_FIXTURE,
                       "src/fake/spans.cpp": SPAN_LITERAL_SUPPRESSED},
    },
    "span-registry[undefined]": {
        "bad": {SPANS_HPP: SPAN_REGISTRY_FIXTURE,
                "src/fake/spans.cpp": SPAN_UNDEFINED_BAD},
        "clean": {SPANS_HPP: SPAN_REGISTRY_FIXTURE,
                  "src/fake/spans.cpp": SPAN_UNDEFINED_CLEAN},
        "suppressed": {SPANS_HPP: SPAN_REGISTRY_FIXTURE,
                       "src/fake/spans.cpp": SPAN_UNDEFINED_SUPPRESSED},
    },
    "span-registry[parallel_for]": {
        "bad": {SPANS_HPP: SPAN_REGISTRY_FIXTURE,
                "src/fake/spans.cpp": SPAN_PARFOR_BAD},
        "clean": {SPANS_HPP: SPAN_REGISTRY_FIXTURE,
                  "src/fake/spans.cpp": SPAN_PARFOR_CLEAN},
        "suppressed": {SPANS_HPP: SPAN_REGISTRY_FIXTURE,
                       "src/fake/spans.cpp": SPAN_PARFOR_SUPPRESSED},
    },
    "span-registry[event]": {
        "bad": {SPANS_HPP: SPAN_REGISTRY_FIXTURE,
                "src/fake/spans.cpp": SPAN_EVENT_BAD},
        "clean": {SPANS_HPP: SPAN_REGISTRY_FIXTURE,
                  "src/fake/spans.cpp": SPAN_EVENT_CLEAN},
        "suppressed": {SPANS_HPP: SPAN_REGISTRY_FIXTURE,
                       "src/fake/spans.cpp": SPAN_EVENT_SUPPRESSED},
    },
    "span-registry[duplicate]": {
        "bad": {SPANS_HPP: SPAN_REGISTRY_DUP},
        "clean": {SPANS_HPP: SPAN_REGISTRY_FIXTURE},
        "suppressed": {SPANS_HPP: SPAN_REGISTRY_DUP_SUPPRESSED},
    },
    "metric-name-literal": {
        "bad": {METRICS_HPP: METRIC_REGISTRY_FIXTURE,
                "src/fake/metrics.cpp": METRIC_LITERAL_BAD},
        "clean": {METRICS_HPP: METRIC_REGISTRY_FIXTURE,
                  "src/fake/metrics.cpp": METRIC_LITERAL_CLEAN},
        "suppressed": {METRICS_HPP: METRIC_REGISTRY_FIXTURE,
                       "src/fake/metrics.cpp": METRIC_LITERAL_SUPPRESSED},
    },
    "metric-name-literal[undefined]": {
        "bad": {METRICS_HPP: METRIC_REGISTRY_FIXTURE,
                "src/fake/metrics.cpp": METRIC_UNDEFINED_BAD},
        "clean": {METRICS_HPP: METRIC_REGISTRY_FIXTURE,
                  "src/fake/metrics.cpp": METRIC_UNDEFINED_CLEAN},
        "suppressed": {METRICS_HPP: METRIC_REGISTRY_FIXTURE,
                       "src/fake/metrics.cpp": METRIC_UNDEFINED_SUPPRESSED},
    },
    "metric-name-literal[duplicate]": {
        "bad": {METRICS_HPP: METRIC_REGISTRY_DUP},
        "clean": {METRICS_HPP: METRIC_REGISTRY_FIXTURE},
        "suppressed": {METRICS_HPP: METRIC_REGISTRY_DUP_SUPPRESSED},
    },
    "non-relaxed-atomic": {
        "bad": {"src/parallel/fake_claim.cpp": ATOMIC_BAD},
        # Off the hot paths the default ordering is allowed.
        "clean": {"src/parallel/fake_claim.cpp": ATOMIC_CLEAN,
                  "src/engine/fake_claim.cpp": ATOMIC_BAD},
        "suppressed": {"src/parallel/fake_claim.cpp": ATOMIC_SUPPRESSED},
    },
    "evaluator-validates": {
        "bad": {"src/core/fake_eval.cpp": EVAL_BAD},
        "clean": {"src/core/fake_eval.cpp": EVAL_CLEAN},
        "suppressed": {"src/core/fake_eval.cpp": EVAL_SUPPRESSED},
    },
    "header-hygiene": {
        "bad": {"src/fake/answer.hpp": PRAGMA_BAD},
        "clean": {"src/fake/answer.hpp": PRAGMA_CLEAN},
        "suppressed": {"src/fake/answer.hpp": PRAGMA_SUPPRESSED},
    },
    "header-hygiene[duplicate-include]": {
        "bad": {"src/fake/includes.cpp": INCLUDE_BAD},
        "clean": {"src/fake/includes.cpp": INCLUDE_CLEAN},
        "suppressed": {"src/fake/includes.cpp": INCLUDE_SUPPRESSED},
    },
    "engine-returns-expected": {
        "bad": {"src/service/fake_fail.cpp": RAW_THROW_BAD},
        # A raw throw outside the engine/service layer is allowed.
        "clean": {"src/service/fake_fail.cpp": RAW_THROW_CLEAN,
                  "src/util/fake_fail.cpp": RAW_THROW_BAD},
        "suppressed": {"src/service/fake_fail.cpp": RAW_THROW_SUPPRESSED},
    },
}


class RuleMatrixTest(unittest.TestCase):
    """Violating fires, clean is silent, suppressed is found-but-allowed."""

    def test_matrix_covers_every_rule(self):
        self.assertEqual({_rule(case) for case in MATRIX},
                         set(rules_mod.RULES))

    def test_bad_tu_fires(self):
        for case, tus in MATRIX.items():
            rule = _rule(case)
            with self.subTest(case=case):
                found = _token_findings(tus["bad"], rule)
                unsuppressed = [f for f in found if not f.suppressed]
                self.assertTrue(
                    unsuppressed,
                    f"{rule}: seeded violation not detected")

    def test_clean_tu_is_silent(self):
        for case, tus in MATRIX.items():
            rule = _rule(case)
            with self.subTest(case=case):
                found = _token_findings(tus["clean"], rule)
                self.assertEqual(
                    [], found,
                    f"{rule}: clean counterpart flagged: {found}")

    def test_suppressed_tu_is_found_but_allowed(self):
        for case, tus in MATRIX.items():
            rule = _rule(case)
            with self.subTest(case=case):
                found = _token_findings(tus["suppressed"], rule)
                self.assertTrue(found, f"{rule}: suppressed variant should "
                                       "still produce findings")
                unsuppressed = [f for f in found if not f.suppressed]
                self.assertEqual(
                    [], unsuppressed,
                    f"{rule}: analyze-allow comment not honored")


TELE_HELPER_NO_FINISH = """
namespace treecode::engine {
void emit_request(RequestScope& scope) {
  registry().counter(obs::metric::kEngineRequests).add(1);
}
}
"""

TELE_HELPER_FINISHES = """
namespace treecode::engine {
void emit_request(RequestScope& scope) {
  registry().counter(obs::metric::kEngineRequests).add(1);
  scope.finish(verdict);
}
}
"""

TELE_HELPER_FREE_FINISH = TELE_HELPER_FINISHES.replace(
    "scope.finish(verdict);", "reqtrace::finish_request(ctx, verdict);")


class TraceFinishTest(unittest.TestCase):
    """The telemetry emit helper must also finish the request's trace
    context, so every entry-point verdict reaches the tail sampler."""

    def test_helper_without_finish_fires(self):
        found = _token_findings(
            {"src/engine/fake_emit.cpp": TELE_HELPER_NO_FINISH},
            "try-telemetry-exit")
        self.assertTrue(found, "finish-less emit helper not flagged")
        self.assertIn("tail-based", found[0].message)

    def test_helper_with_scope_finish_is_silent(self):
        self.assertEqual([], _token_findings(
            {"src/engine/fake_emit.cpp": TELE_HELPER_FINISHES},
            "try-telemetry-exit"))

    def test_helper_with_free_finish_request_is_silent(self):
        self.assertEqual([], _token_findings(
            {"src/engine/fake_emit.cpp": TELE_HELPER_FREE_FINISH},
            "try-telemetry-exit"))


class CrossTuLockCycleTest(unittest.TestCase):
    """The cycle exists only in the merged graph, never in either TU alone."""

    def test_single_tu_has_no_cycle(self):
        for rel in ("src/fake/lock_a.cpp", "src/fake/lock_b.cpp"):
            text = MATRIX["lock-order-cycle"]["bad"][rel]
            facts = [frontend_tokens.extract(rel, text)]
            self.assertEqual([], rules_mod.run_rules(facts,
                                                     {"lock-order-cycle"}),
                             f"{rel} alone must not contain a cycle")

    def test_merged_graph_reports_both_edges(self):
        found = _token_findings(MATRIX["lock-order-cycle"]["bad"],
                                "lock-order-cycle")
        self.assertEqual(1, len(found))
        msg = found[0].message
        self.assertIn("Alpha::mu_", msg)
        self.assertIn("Beta::mu_", msg)
        self.assertIn("src/fake/lock_a.cpp", msg)
        self.assertIn("src/fake/lock_b.cpp", msg)


class LibclangParityTest(unittest.TestCase):
    """When libclang is importable, the violating TUs must fire there too."""

    # C++ the synthetic TUs reference but do not define; libclang needs
    # real declarations where the token frontend pattern-matches.
    _PRELUDE = """
#pragma once
#include <cstddef>
template <class F> void parallel_for(int lo, int hi, F f);
class ResourceGovernor {
 public:
  class Reservation {
   public:
    explicit operator bool() const { return false; }
  };
  bool try_reserve(unsigned long bytes, const char* label);
  Reservation reserve(unsigned long bytes, const char* label) noexcept;
  void release(unsigned long bytes);
};
void emit_request();
"""

    def test_bad_tus_fire_under_libclang(self):
        import frontend_clang
        ok, detail = frontend_clang.available()
        if not ok:
            self.skipTest(f"libclang unavailable: {detail}")
        with tempfile.TemporaryDirectory() as tmp:
            prelude = os.path.join(tmp, "prelude.hpp")
            with open(prelude, "w", encoding="utf-8") as fh:
                fh.write(self._PRELUDE)
            for case, tus in MATRIX.items():
                rule = _rule(case)
                if rule == "engine-request-count":
                    # The clean/bad distinction is a call-argument detail
                    # the prelude cannot model without the obs headers.
                    continue
                with self.subTest(case=case):
                    facts = []
                    for rel, text in sorted(tus["bad"].items()):
                        path = os.path.join(tmp, rel.replace("/", "_"))
                        body = f'#include "{prelude}"\n' + text
                        with open(path, "w", encoding="utf-8") as fh:
                            fh.write(body)
                        facts.append(lexical.attach(frontend_clang.extract(
                            path, rel, build_dir=tmp), body))
                    found = [f for f in rules_mod.run_rules(facts, {rule})
                             if not f.suppressed]
                    self.assertTrue(
                        found, f"{case}: violation undetected by libclang")


class DesignTagTest(unittest.TestCase):
    """Every (A: `rule`) tag in DESIGN.md names a real analyzer rule."""

    def test_design_tags_name_rules(self):
        with open(os.path.join(REPO_ROOT, "DESIGN.md"), encoding="utf-8") as fh:
            design = fh.read()
        tags = [name for group in re.findall(r"\(A: ([^)]*)\)", design)
                for name in re.findall(r"`([^`]+)`", group)]
        self.assertTrue(tags, "DESIGN.md has no (A: `rule`) tags")
        unknown = sorted(set(tags) - set(rules_mod.RULES))
        self.assertEqual([], unknown,
                         f"DESIGN.md tags name unknown rules: {unknown}")


if __name__ == "__main__":
    unittest.main()
