"""Rule engine: semantic checks over merged FileFacts.

Five families, eighteen rules. Every rule consumes extracted facts (never
raw text), so the token and libclang frontends are interchangeable.
Findings carry ``suppressed=True`` when an ``// analyze-allow(rule)``
comment covers the finding line — or, for the path-based rules
(engine-throw-path, lock-order-cycle), any line of the reported
call/edge path, so a suppression can be placed at the call edge whose
semantics make the path impossible.

FP-determinism family — protects the bitwise-identical-potentials
guarantee (accumulation order is exactly the FP-error source the paper's
error model assumes away):
  fp-unordered-accumulation   FP accumulation inside a range-for over an
                              unordered container (iteration order is
                              implementation-defined -> run-to-run drift).
  fp-atomic-accumulation      arithmetic on std::atomic<float|double>
                              (scheduling-ordered, non-associative).
  fp-parallel-reduction       std algorithms with std::execution::par*
                              policies (unspecified reduction trees).
  fp-parallel-for-accumulation  compound FP assignment inside a
                              parallel_for(_blocked) body into a scalar
                              declared outside the body — bypasses the
                              blocked deterministic-reduction pattern.

Resource/exception-safety family:
  governor-raii               direct ResourceGovernor try_reserve/
                              reserve/release calls outside the guard's
                              own implementation — a reservation not
                              owned by a Reservation leaks on throw.
  engine-throw-path           a throw (or std::rethrow_exception)
                              reachable from a public try_* entry point
                              through calls never crossing a try/catch —
                              the typed-Expected contract would leak an
                              exception to callers.

Lock-order family:
  lock-order-cycle            cross-TU mutex acquisition graph (direct
                              lock-under-lock edges plus call-closure
                              edges) contains a cycle.
  lock-across-parallel        a lock held across parallel_for(_blocked)
                              or a user-callback invocation (worker
                              rendezvous / unknown callee under a lock).

API-contract family:
  try-telemetry-exit          a public try_* entry point with an exit
                              path that skips the request-record emit
                              helper,
                              or an emit helper that never finishes the
                              request's trace context (RequestScope::finish
                              / reqtrace::finish_request), leaving the
                              tail sampler without a verdict.
  engine-request-count        the telemetry emit helper must count
                              obs::metric::kEngineRequests before its
                              first early return, so the SLO error-rate
                              denominator covers untraced runs.

Source-hygiene family — lexical facts (lexical.py); scopes below:
  naked-new                   naked `new` or malloc/calloc/realloc/free.
  pow-integer-exponent        integer-exponent std::pow in a hot kernel.
  span-registry               a span name that is not a defined
                              obs::span::k* constant; aliased constants.
  metric-name-literal         a literal or undefined obs::metric::k*
                              metric name; aliased constants.
  non-relaxed-atomic          hot-path atomic op without memory_order_relaxed.
  evaluator-validates         evaluator entry point without validation.
  header-hygiene              header without #pragma once; duplicate #include.
  engine-returns-expected     `throw` in src/engine/ or src/service/.
Registry membership is checked only when the registry header is analyzed.
"""

from __future__ import annotations

import re

from model import FileFacts, Finding, FuncFacts

RULES: dict[str, str] = {
    "fp-unordered-accumulation":
        "FP accumulation while iterating an unordered container",
    "fp-atomic-accumulation": "arithmetic on std::atomic<float|double>",
    "fp-parallel-reduction": "std algorithm with a parallel execution policy",
    "fp-parallel-for-accumulation":
        "FP accumulation into outer-scope scalar inside a parallel_for body",
    "governor-raii":
        "manual ResourceGovernor reserve/release outside the RAII guard",
    "engine-throw-path":
        "throw reachable from a public try_* entry point without conversion",
    "lock-order-cycle": "cycle in the cross-TU mutex acquisition graph",
    "lock-across-parallel": "lock held across parallel_for or a user callback",
    "try-telemetry-exit": "public try_* exit path without a telemetry record",
    "engine-request-count":
        "telemetry emit helper does not count engine.requests first",
    "naked-new": "naked new or C allocation",
    "pow-integer-exponent": "std::pow with an integer exponent in a hot kernel",
    "span-registry": "span name that is not a span-registry constant",
    "metric-name-literal": "metric name that is not a metric-registry constant",
    "non-relaxed-atomic": "hot-path atomic op without memory_order_relaxed",
    "evaluator-validates": "evaluator entry point without input validation",
    "header-hygiene": "header without #pragma once, or a duplicate #include",
    "engine-returns-expected": "raw throw in the engine/service layer",
}

# The parallel runtime itself orchestrates workers and rethrows their
# exceptions; its internals are the mechanism, not a client of it.
PARALLEL_RUNTIME_PREFIX = "src/parallel/"
# Both the engine and the serving layer above it expose public try_*
# entry points bound by the throw-path and telemetry contracts.
ENTRY_FILE_PREFIX = ("src/engine/", "src/service/")
GOVERNOR_IMPL_FILES = ("src/util/resource_governor.hpp",
                       "src/util/resource_governor.cpp")
PARALLEL_FNS = {"parallel_for", "parallel_for_blocked"}
EMIT_HELPERS = {"emit_request"}
# Engine emit helpers count engine.requests; the service's counts
# service.requests. Either satisfies the count-before-gate contract.
REQUEST_COUNTER_TOKENS = ("kEngineRequests", "kServiceRequests")
_MAX_PATH = 40

# Scopes of the source-hygiene rules.
HOT_ATOMIC_FILES = ("src/obs/metrics.hpp", "src/parallel/")
POW_HOT_DIRS = ("src/core/", "src/multipole/")
EVALUATOR_DIRS = ("src/core/", "src/engine/", "src/service/")
SPAN_REGISTRY = "src/obs/spans.hpp"
METRIC_REGISTRY = "src/obs/metric_names.hpp"
# Not call sites: the registry, the headers defining the span types and
# functions, and parallel_for's implementation (forwards its caller's name).
SPAN_EXEMPT_FILES = (SPAN_REGISTRY, "src/util/timer.hpp",
                     "src/obs/reqtrace.hpp", "src/obs/reqtrace.cpp",
                     "src/parallel/parallel_for.hpp",
                     "src/parallel/parallel_for.cpp")

# Member names that belong to STL containers/handles in practice. A member
# call with an *unknown* receiver type never resolves to a repo class
# through one of these — `map.find(...)` must not dispatch to
# `PlanCache::find` just because PlanCache is the only class defining
# `find`. With a known receiver type they resolve normally.
STL_MEMBER_NAMES = {
    "find", "insert", "erase", "clear", "size", "empty", "count", "at",
    "push_back", "pop_back", "emplace", "emplace_back", "begin", "end",
    "front", "back", "reserve", "resize", "get", "reset", "release",
    "swap", "data", "str", "c_str", "substr", "append", "value", "store",
    "load", "exchange", "lock", "unlock", "try_lock", "wait", "notify_one",
    "notify_all", "push", "pop", "top", "contains",
}


class _Index:
    """Merged cross-file fact indexes."""

    def __init__(self, files: list[FileFacts]):
        self.files = files
        self.by_file: dict[str, FileFacts] = {f.path: f for f in files}
        self.defs_by_name: dict[str, list[FuncFacts]] = {}
        self.public_methods: dict[str, set[str]] = {}
        for f in files:
            for fn in f.functions:
                self.defs_by_name.setdefault(fn.name, []).append(fn)
            for cls, methods in f.public_methods.items():
                self.public_methods.setdefault(cls, set()).update(methods)

    def entry_points(self) -> list[FuncFacts]:
        """Definitions of public engine methods named try_* — the typed
        Expected API surface the throw-path and telemetry contracts bind."""
        out = []
        for f in self.files:
            for fn in f.functions:
                if not fn.file.startswith(ENTRY_FILE_PREFIX):
                    continue
                if "::" not in fn.qual_name or not fn.name.startswith("try_"):
                    continue
                cls = fn.qual_name.rsplit("::", 1)[0]
                if fn.name in self.public_methods.get(cls, set()):
                    out.append(fn)
        return out

    def resolve(self, caller: FuncFacts, call) -> list[FuncFacts]:
        """Definitions a call may dispatch to. Member calls resolve only
        when the receiver's declared type is known or the method name is
        defined in exactly one class — bare-name matching across classes
        (every `clear`, `reset`, `insert` in the repo) would wire the call
        graph together with edges that cannot happen."""
        cands = self.defs_by_name.get(call.name, [])
        if not cands:
            return []
        if getattr(call, "member", False):
            methods = [d for d in cands if "::" in d.qual_name]
            recv = getattr(call, "recv_type", "")
            if recv:
                return [d for d in methods
                        if d.qual_name == f"{recv}::{call.name}"]
            if call.name in STL_MEMBER_NAMES:
                return []
            classes = {d.qual_name.rsplit("::", 1)[0] for d in methods}
            return methods if len(classes) == 1 else []
        caller_cls = caller.qual_name.rsplit("::", 1)[0] \
            if "::" in caller.qual_name else ""
        same = [d for d in cands
                if caller_cls and d.qual_name == f"{caller_cls}::{call.name}"]
        free = [d for d in cands if "::" not in d.qual_name]
        return same + free

    def suppressed(self, rule: str, file: str, line: int) -> bool:
        """Is `rule` allowed at file:line by an // analyze-allow comment?"""
        ff = self.by_file.get(file)
        allowed = ff.suppressions.get(line, set()) if ff else set()
        return rule in allowed or "*" in allowed


def _finding(idx: _Index, rule: str, file: str, line: int, message: str,
             extra_lines: list[tuple[str, int]] | None = None) -> Finding:
    sup = idx.suppressed(rule, file, line)
    for f, ln in (extra_lines or []):
        sup = sup or idx.suppressed(rule, f, ln)
    return Finding(rule=rule, file=file, line=line, message=message,
                   suppressed=sup)


# --- FP-determinism ------------------------------------------------------

def rule_fp_unordered(idx: _Index) -> list[Finding]:
    out = []
    for f in idx.files:
        for fn in f.functions:
            for a in fn.accums:
                if a.in_unordered_loop and a.is_fp and not a.subscripted:
                    out.append(_finding(
                        idx, "fp-unordered-accumulation", f.path, a.line,
                        f"`{a.base}` accumulates floating point inside a "
                        "range-for over an unordered container in "
                        f"{fn.qual_name}; iteration order is unspecified, so "
                        "the FP sum is not reproducible — iterate a sorted/"
                        "indexed view instead"))
    return out


def rule_fp_atomic(idx: _Index) -> list[Finding]:
    out = []
    for f in idx.files:
        for var, line in f.atomic_fp_ops:
            out.append(_finding(
                idx, "fp-atomic-accumulation", f.path, line,
                f"arithmetic on std::atomic floating-point `{var}`: "
                "commit order depends on thread scheduling and FP addition "
                "is non-associative — use the sharded-counter pattern "
                "(obs/metrics.hpp) or a per-thread accumulator merged in "
                "thread order"))
    return out


def rule_fp_policy(idx: _Index) -> list[Finding]:
    out = []
    for f in idx.files:
        for callee, line in f.par_policy_calls:
            out.append(_finding(
                idx, "fp-parallel-reduction", f.path, line,
                f"std::{callee} with a parallel execution policy: the "
                "reduction tree is unspecified, which breaks bitwise "
                "reproducibility — use parallel_for_blocked with the "
                "deterministic thread-order merge"))
    return out


def rule_fp_parallel_for(idx: _Index) -> list[Finding]:
    out = []
    for f in idx.files:
        if f.path.startswith(PARALLEL_RUNTIME_PREFIX):
            continue
        for fn in f.functions:
            for a in fn.accums:
                if a.outside_parallel and a.is_fp and not a.subscripted:
                    out.append(_finding(
                        idx, "fp-parallel-for-accumulation", f.path, a.line,
                        f"`{a.base}` is a floating-point scalar declared "
                        "outside the parallel_for body it accumulates in "
                        f"({fn.qual_name}); worker interleaving orders the "
                        "additions — accumulate per block and merge in "
                        "thread order (the blocked-reduction pattern)"))
    return out


# --- resource/exception safety ------------------------------------------

def rule_governor_raii(idx: _Index) -> list[Finding]:
    out = []
    for f in idx.files:
        if f.path in GOVERNOR_IMPL_FILES:
            continue
        for method, line in f.governor_calls:
            # `reserve()` is the Reservation-returning RAII factory — the
            # sanctioned replacement — so only the raw pair is flagged.
            if method not in ("try_reserve", "release"):
                continue
            out.append(_finding(
                idx, "governor-raii", f.path, line,
                f"direct ResourceGovernor::{method}() call; bytes reserved "
                "here leak if any later statement throws — hold the "
                "reservation in a ResourceGovernor::Reservation RAII guard "
                "(util/resource_governor.hpp)"))
    return out


def rule_engine_throw_path(idx: _Index) -> list[Finding]:
    out = []
    reported: set[tuple[str, int]] = set()

    def visit(fn: FuncFacts, path: list[tuple[str, int, str]],
              seen: set[int]) -> None:
        if id(fn) in seen or len(path) > _MAX_PATH:
            return
        seen.add(id(fn))
        for th in fn.throws:
            if th.guarded:
                continue
            key = (fn.file, th.line)
            if key in reported:
                continue
            reported.add(key)
            chain = " -> ".join(p[2] for p in path + [(fn.file, th.line,
                                                       fn.qual_name)])
            out.append(_finding(
                idx, "engine-throw-path", fn.file, th.line,
                f"`{th.text}` reaches the public entry point "
                f"{path[0][2] if path else fn.qual_name} without crossing a "
                f"try/catch that converts to Expected (call path: {chain})",
                extra_lines=[(p[0], p[1]) for p in path]))
        for call in fn.calls:
            if call.guarded:
                continue
            for callee in idx.resolve(fn, call):
                visit(callee, path + [(fn.file, call.line, fn.qual_name)], seen)

    for entry in idx.entry_points():
        visit(entry, [], set())
    return out


# --- lock order ----------------------------------------------------------

def _closure_locks(idx: _Index) -> dict[int, set[tuple[str, str, int]]]:
    """For each function (by id), every mutex it may acquire directly or
    through its calls: {(mutex, file, line)}."""
    memo: dict[int, set] = {}

    def visit(fn: FuncFacts, stack: set[int]) -> set:
        if id(fn) in memo:
            return memo[id(fn)]
        if id(fn) in stack:
            return set()
        stack.add(id(fn))
        acquired = {(ev.mutex, fn.file, ev.line) for ev in fn.locks}
        for call in fn.calls:
            for callee in idx.resolve(fn, call):
                acquired |= visit(callee, stack)
        stack.discard(id(fn))
        memo[id(fn)] = acquired
        return acquired

    for f in idx.files:
        for fn in f.functions:
            visit(fn, set())
    return memo


def _lock_edges(idx: _Index) -> dict[tuple[str, str], tuple[str, int]]:
    """Merged acquisition graph: (held, acquired) -> representative
    (file, line) where the edge is created."""
    closure = _closure_locks(idx)
    edges: dict[tuple[str, str], tuple[str, int]] = {}

    def add(held: str, acq: str, file: str, line: int) -> None:
        if held == acq:
            return
        edges.setdefault((held, acq), (file, line))

    for f in idx.files:
        for fn in f.functions:
            for ev in fn.locks:
                for held in ev.held:
                    add(held, ev.mutex, f.path, ev.line)
            for call in fn.calls:
                if not call.locks_held:
                    continue
                for callee in idx.resolve(fn, call):
                    for (m, _cf, _cl) in closure.get(id(callee), set()):
                        for held in call.locks_held:
                            add(held, m, f.path, call.line)
    return edges


def rule_lock_cycle(idx: _Index) -> list[Finding]:
    edges = _lock_edges(idx)
    graph: dict[str, set[str]] = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())

    # Iterative Tarjan SCC.
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(graph[root])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == v:
                        break
                sccs.append(scc)

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)

    out = []
    for scc in sccs:
        cyclic = len(scc) > 1
        if not cyclic:
            continue
        members = sorted(scc)
        edge_locs = []
        for a in members:
            for b in members:
                if (a, b) in edges:
                    edge_locs.append((a, b) + edges[(a, b)])
        file, line = edge_locs[0][2], edge_locs[0][3]
        detail = "; ".join(f"{a} -> {b} at {f}:{ln}" for a, b, f, ln in edge_locs)
        out.append(_finding(
            idx, "lock-order-cycle", file, line,
            f"mutex acquisition cycle {{{', '.join(members)}}}: {detail} — "
            "two threads taking the locks in opposite orders deadlock; "
            "impose a global order or merge the critical sections",
            extra_lines=[(f, ln) for _a, _b, f, ln in edge_locs]))
    return out


def rule_lock_across_parallel(idx: _Index) -> list[Finding]:
    # Closure: does a function (transitively) start a parallel sweep?
    memo: dict[int, bool] = {}

    def calls_parallel(fn: FuncFacts, stack: set[int]) -> bool:
        if id(fn) in memo:
            return memo[id(fn)]
        if id(fn) in stack:
            return False
        stack.add(id(fn))
        result = any(c.name in PARALLEL_FNS for c in fn.calls)
        if not result:
            for c in fn.calls:
                if any(calls_parallel(d, stack)
                       for d in idx.resolve(fn, c)):
                    result = True
                    break
        stack.discard(id(fn))
        memo[id(fn)] = result
        return result

    out = []
    for f in idx.files:
        if f.path.startswith(PARALLEL_RUNTIME_PREFIX):
            continue
        for fn in f.functions:
            for call in fn.calls:
                if not call.locks_held:
                    continue
                reason = None
                if call.name in PARALLEL_FNS:
                    reason = f"starts a {call.name} sweep"
                elif call.is_callback:
                    reason = f"invokes user callback `{call.name}`"
                else:
                    for d in idx.resolve(fn, call):
                        if calls_parallel(d, set()):
                            reason = (f"calls {d.qual_name}, which starts a "
                                      "parallel sweep")
                            break
                if reason:
                    out.append(_finding(
                        idx, "lock-across-parallel", f.path, call.line,
                        f"{fn.qual_name} holds {', '.join(call.locks_held)} "
                        f"and {reason}; a worker (or callback) touching the "
                        "same lock deadlocks — release before fanning out"))
    return out


# --- API contracts -------------------------------------------------------

def rule_try_telemetry_exit(idx: _Index) -> list[Finding]:
    out = []
    for fn in idx.entry_points():
        if fn.name.endswith("_impl"):
            continue
        if not fn.emit_lines:
            out.append(_finding(
                idx, "try-telemetry-exit", fn.file, fn.line,
                f"public entry point {fn.qual_name} never emits a telemetry "
                "RequestRecord; every try_* exit must be observable "
                "(emit_request -> obs/reqtrace.hpp RequestScope::finish)"))
            continue
        first_emit = min(fn.emit_lines)
        for ret in fn.returns:
            if ret.line < first_emit:
                out.append(_finding(
                    idx, "try-telemetry-exit", fn.file, ret.line,
                    f"{fn.qual_name} returns before its telemetry "
                    "emit_request call; this exit path is invisible to the "
                    "request log and the engine.requests counter"))
    # The emit helper is also where a request's trace verdict is decided:
    # it must call RequestScope::finish (or reqtrace::finish_request)
    # so every entry-point exit feeds the tail sampler. A helper that
    # skipped it would silently exempt its layer from trace retention.
    for fn in (fn for f in idx.files for fn in f.functions
               if fn.name in EMIT_HELPERS):
        if not any(c.name in ("finish", "finish_request") for c in fn.calls):
            out.append(_finding(
                idx, "try-telemetry-exit", fn.file, fn.line,
                f"{fn.qual_name} never finishes the request's trace context "
                "(RequestScope::finish / reqtrace::finish_request); its "
                "entry points' verdicts would be invisible to the "
                "tail-based trace sampler"))
    return out


def rule_engine_request_count(idx: _Index) -> list[Finding]:
    out = []
    helpers = [fn for f in idx.files for fn in f.functions
               if fn.name in EMIT_HELPERS]
    for fn in helpers:
        counted_at = None
        for call in fn.calls:
            if call.name in ("counter", "add") and \
                    any(tok in call.arg0 for tok in REQUEST_COUNTER_TOKENS):
                counted_at = call.line
                break
        if counted_at is None:
            out.append(_finding(
                idx, "engine-request-count", fn.file, fn.line,
                f"{fn.qual_name} does not increment its layer's request "
                "counter (obs::metric::kEngineRequests or kServiceRequests); "
                "the request counter is the SLO error-rate denominator and "
                "must count every entry-point call, traced or not"))
            continue
        early = [r.line for r in fn.returns if r.line < counted_at]
        if early:
            out.append(_finding(
                idx, "engine-request-count", fn.file, early[0],
                f"{fn.qual_name} can return before counting its request "
                f"counter (counted at line {counted_at}); "
                "untraced exits would be dropped from the request count"))
    return out


# --- source hygiene (lexical facts) ---------------------------------------

def rule_naked_new(idx: _Index) -> list[Finding]:
    return [_finding(idx, "naked-new", f.path, line,
                     "naked `new`; use std::vector / std::make_unique"
                     if kind == "new" else
                     "manual C allocation; use RAII containers")
            for f in idx.files for kind, line in f.lexical.allocs]


def rule_pow_integer_exponent(idx: _Index) -> list[Finding]:
    # Integer-looking: no decimal point, no float exponent marker.
    return [_finding(idx, "pow-integer-exponent", f.path, line,
                     f"std::pow with integer exponent `{exp}` in a hot "
                     "kernel; use ipow() from multipole/ipow.hpp")
            for f in idx.files if f.path.startswith(POW_HOT_DIRS)
            for exp, line in f.lexical.pow_exponents
            if "." not in exp and not re.search(r"\d[eE][-+]?\d", exp)]


def _registry_names(idx: _Index, rule: str, path: str, kind: str,
                    out: list[Finding]) -> set[str]:
    """Constants the registry header `path` defines (none when it is not
    analyzed); flags each constant aliasing an earlier one's string."""
    ff = idx.by_file.get(path)
    consts = ff.lexical.registry_consts if ff else []
    seen: dict[str, str] = {}
    for name, value, line in consts:
        if seen.setdefault(value, name) != name:
            out.append(_finding(
                idx, rule, path, line, f"{name} duplicates {kind} string "
                f"{value!r} already used by {seen[value]}"))
    return {name for name, _value, _line in consts}


def _registry_rule(idx: _Index, rule: str, kind: str, registry: str,
                   exempt: tuple) -> list[Finding]:
    """Every `kind` name argument is an obs::<kind>::k* constant defined
    in `registry`. A metric name or a parallel_for trace name may also be
    computed (or omitted): only literals and constants are checked there."""
    out: list[Finding] = []
    names = _registry_names(idx, rule, registry, kind, out)
    const_re = re.compile(rf"(?:\w+::)*{kind}::(k\w+)")
    for f in idx.files:
        for arg in f.lexical.name_args:
            if arg.registry != kind or f.path in exempt:
                continue
            const = const_re.fullmatch(arg.text)
            if const is None and not arg.literal and (
                    kind == "metric" or arg.callee in PARALLEL_FNS):
                continue
            if const is None:
                msg = (f"{arg.callee} name must be a {kind}-registry "
                       f"constant (obs::{kind}::kFoo from {registry})")
            elif names and const.group(1) not in names:
                msg = (f"{arg.callee} name references {kind}::"
                       f"{const.group(1)}, which is not defined in {registry}")
            else:
                continue
            out.append(_finding(idx, rule, f.path, arg.line, msg))
    return out


def rule_span_registry(idx: _Index) -> list[Finding]:
    return _registry_rule(idx, "span-registry", "span", SPAN_REGISTRY,
                          SPAN_EXEMPT_FILES)


def rule_metric_name_literal(idx: _Index) -> list[Finding]:
    return _registry_rule(idx, "metric-name-literal", "metric",
                          METRIC_REGISTRY, (METRIC_REGISTRY,))


def rule_non_relaxed_atomic(idx: _Index) -> list[Finding]:
    return [_finding(idx, "non-relaxed-atomic", f.path, line,
                     "atomic op on a hot path without explicit "
                     "std::memory_order_relaxed")
            for f in idx.files if f.path.startswith(HOT_ATOMIC_FILES)
            for _op, line, relaxed in f.lexical.atomic_ops if not relaxed]


def rule_evaluator_validates(idx: _Index) -> list[Finding]:
    return [_finding(idx, "evaluator-validates", f.path, 1,
                     "evaluator entry point without a validate()/"
                     "enforce_validation()/assign_degrees() call")
            for f in idx.files
            if f.path.startswith(EVALUATOR_DIRS) and f.path.endswith(".cpp")
            and f.lexical.evaluator_entry and not f.lexical.validates]


def rule_header_hygiene(idx: _Index) -> list[Finding]:
    out = [_finding(idx, "header-hygiene", f.path, 1,
                    "header missing `#pragma once`")
           for f in idx.files
           if f.path.endswith(".hpp") and not f.lexical.pragma_once]
    for f in idx.files:
        first: dict[str, int] = {}
        for target, line in f.lexical.includes:
            if first.setdefault(target, line) != line:
                out.append(_finding(
                    idx, "header-hygiene", f.path, line,
                    f"duplicate #include {target} (first included at line "
                    f"{first[target]})"))
    return out


def rule_engine_returns_expected(idx: _Index) -> list[Finding]:
    # `throw` as a keyword only: value_or_throw / throw_error (util/) are
    # the sanctioned escape hatches for legacy exception wrappers.
    return [_finding(idx, "engine-returns-expected", f.path, line,
                     "raw `throw` in the engine/service layer; return a "
                     "typed Error via treecode::Expected instead")
            for f in idx.files if f.path.startswith(ENTRY_FILE_PREFIX)
            for line in f.lexical.throw_lines]


_RULE_FNS = {
    "fp-unordered-accumulation": rule_fp_unordered,
    "fp-atomic-accumulation": rule_fp_atomic,
    "fp-parallel-reduction": rule_fp_policy,
    "fp-parallel-for-accumulation": rule_fp_parallel_for,
    "governor-raii": rule_governor_raii,
    "engine-throw-path": rule_engine_throw_path,
    "lock-order-cycle": rule_lock_cycle,
    "lock-across-parallel": rule_lock_across_parallel,
    "try-telemetry-exit": rule_try_telemetry_exit,
    "engine-request-count": rule_engine_request_count,
    "naked-new": rule_naked_new,
    "pow-integer-exponent": rule_pow_integer_exponent,
    "span-registry": rule_span_registry,
    "metric-name-literal": rule_metric_name_literal,
    "non-relaxed-atomic": rule_non_relaxed_atomic,
    "evaluator-validates": rule_evaluator_validates,
    "header-hygiene": rule_header_hygiene,
    "engine-returns-expected": rule_engine_returns_expected,
}


def run_rules(files: list[FileFacts], selected: set[str] | None = None) -> list[Finding]:
    """Run the selected rules (all by default) over merged facts; findings
    sorted by (file, line, rule)."""
    idx = _Index(files)
    findings: list[Finding] = []
    seen: set[tuple] = set()
    for name, impl in _RULE_FNS.items():
        if selected is not None and name not in selected:
            continue
        for finding in impl(idx):
            if finding.key() not in seen:
                seen.add(finding.key())
                findings.append(finding)
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings
