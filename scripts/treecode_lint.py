#!/usr/bin/env python3
"""Project-specific lint for the treecode source tree (stdlib only).

Rules (suppress a finding with a same-line ``// lint-allow: <rule>``):

  naked-new              No naked ``new`` / ``malloc`` family calls anywhere in
                         src/ — ownership lives in containers and RAII types.
  pow-integer-exponent   No ``std::pow`` whose exponent is an integer
                         expression in the hot numeric kernels (src/core/,
                         src/multipole/). Use ipow() (multipole/ipow.hpp):
                         std::pow with an integer exponent routes through the
                         general exp/log machinery per accepted interaction.
  span-registry          Every ScopedTimer / reqtrace RequestScope /
                         PhaseSpan name argument, every
                         reqtrace::record_span name (second) argument, every
                         record_timeline_span name (first) argument, and
                         every parallel_for(_blocked) trailing trace-name
                         argument is a constant from src/obs/spans.hpp
                         (obs::span::kFoo), so a typo'd span name cannot
                         fragment traces into near-duplicate series. The
                         registry itself must not map two constants to the
                         same string.
  metric-name-literal    Every metrics-registry accessor call —
                         counter()/gauge()/histogram()/series() and
                         obs::flush_counts() — in src/ names its series
                         through a constant from src/obs/metric_names.hpp
                         (obs::metric::kFoo), so a typo'd metric name cannot
                         fork a series away from the bench reports, the
                         OpenMetrics exposition, and the SLO watchdog's
                         rules. Computed names (the snprintf'd per-level
                         audit fan-outs) are exempt by construction. The
                         registry itself must not map two constants to the
                         same string.
  non-relaxed-atomic     Atomic operations in designated hot-path files carry
                         an explicit std::memory_order_relaxed. Sharded
                         metrics and block claiming need atomicity, never
                         ordering; a silent seq_cst default costs a fence per
                         recorded sample.
  evaluator-validates    Every translation unit defining a public evaluator
                         entry point (``EvalResult evaluate_*``, an
                         ``*Evaluator`` constructor, or the engine's
                         EvalSession constructor/evaluate methods, in
                         src/core/, src/engine/, or src/service/) validates
                         its inputs:
                         EvalConfig::validate() (directly or via
                         assign_degrees) or enforce_validation().
  header-hygiene         Every header in src/ starts with ``#pragma once``
                         (a double inclusion is an ODR landmine the linker
                         reports cryptically, if at all), and no file lists
                         the same ``#include`` target twice (the second copy
                         is dead weight that masks a missing include when
                         one of the two is later removed).
  engine-returns-expected
                         No ``throw`` statements in src/engine/ or
                         src/service/: engine and service-boundary
                         failures are typed ErrorCode values carried by
                         treecode::Expected (util/expected.hpp), so callers
                         can distinguish a memory denial (ladder-degradable)
                         from bad input without parsing what() strings. The
                         legacy exception wrappers route through
                         value_or_throw()/throw_error(), which live in
                         src/util/ — not the engine.

Usage: scripts/treecode_lint.py [--root DIR]
Exit status 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SUPPRESS_RE = re.compile(r"//\s*lint-allow:\s*([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)")

# Files whose atomics must all be explicitly relaxed (the contended paths).
HOT_ATOMIC_FILES = ("src/obs/metrics.hpp", "src/parallel/")

# Directories whose std::pow calls sit inside per-interaction loops.
POW_HOT_DIRS = ("src/core/", "src/multipole/")

# Exempt from span-registry: the registry itself, the headers that *define*
# ScopedTimer / RequestScope / PhaseSpan / record_span / record_timeline_span
# (constructor declarations and name_-forwarding bodies are not call sites),
# and parallel_for's implementation, which forwards its caller's trace_name
# and supplies the registry fallback for anonymous sweeps.
SPAN_EXEMPT_FILES = ("src/obs/spans.hpp", "src/util/timer.hpp",
                     "src/obs/reqtrace.hpp", "src/obs/reqtrace.cpp",
                     "src/parallel/parallel_for.hpp", "src/parallel/parallel_for.cpp")

# The central span registry and the shape of its entries.
SPAN_REGISTRY = "src/obs/spans.hpp"
REGISTRY_CONST_RE = re.compile(r"\bconstexpr\s+const\s+char\*\s+(k\w+)\s*=\s*\"([^\"]*)\"")

# An acceptable span-name argument: a qualified reference to a registry
# constant (obs::span::kFoo, span::kFoo, treecode::obs::span::kFoo).
SPAN_CONST_RE = re.compile(r"(?:\w+\s*::\s*)*span\s*::\s*(k\w+)")

# The central metric-name registry and an acceptable metric-name argument.
METRIC_REGISTRY = "src/obs/metric_names.hpp"
METRIC_CONST_RE = re.compile(r"(?:\w+\s*::\s*)*metric\s*::\s*(k\w+)")

# Metrics-registry accessor call sites: member accessors reached through a
# registry reference (the leading [.>] excludes the declarations inside
# metrics.hpp) plus the free-function histogram flusher.
METRIC_CALL_RE = re.compile(
    r"[.>]\s*(?:counter|gauge|histogram|series)\s*(\()|"
    r"\b(?:obs\s*::\s*)?flush_counts\s*(\()")

# A string literal blanked by strip_comments_and_strings.
BLANKED_STRING_RE = re.compile(r"\x01[^\x01]*\x01")

ATOMIC_OP_RE = re.compile(
    r"\.(?:fetch_add|fetch_sub|fetch_or|fetch_and|load|store|exchange|"
    r"compare_exchange_weak|compare_exchange_strong)\s*\("
)

NAKED_NEW_RE = re.compile(r"(?<![:\w])new\b(?!\s*\()")  # excludes placement new
ALLOC_CALL_RE = re.compile(r"\b(?:malloc|calloc|realloc|free)\s*\(")

POW_RE = re.compile(r"\bstd::pow\s*\(")
SPAN_RE = re.compile(
    r"\b(?:obs::|reqtrace::)*(?:ScopedTimer|RequestScope|PhaseSpan)"
    r"\s+\w+\s*(\()|"
    r"\b(?:obs::|reqtrace::)*(?:ScopedTimer|RequestScope|PhaseSpan|"
    r"record_timeline_span)\s*(\()")
# reqtrace::record_span(ctx, name, ...): the span name is the SECOND argument.
RECORD_SPAN_RE = re.compile(r"\brecord_span\s*(\()")
PARALLEL_FOR_RE = re.compile(r"\bparallel_for(?:_blocked)?\s*(\()")

THROW_RE = re.compile(r"\bthrow\b")

PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b", re.MULTILINE)
INCLUDE_LINE_RE = re.compile(r"^\s*#\s*include\s*([<\"][^>\"]+[>\"])")

EVAL_ENTRY_RE = re.compile(
    r"\bEvalResult\s+(?:\w+::)?evaluate\w*\s*\(|\b(\w+Evaluator)::\1\s*\(|"
    r"\bEvalSession::EvalSession\s*\(")
VALIDATES_RE = re.compile(r"\.validate\s*\(\s*\)|\benforce_validation\s*\(|\bassign_degrees\s*\(")


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments, string and char literals, preserving newlines and
    column positions so finding offsets still map to the original file."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i + 1 < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c in "\"'":
            quote = c
            out[i] = "\x01" if quote == '"' else " "  # mark string starts
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                        i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = "\x01" if quote == '"' else " "
                i += 1
        else:
            i += 1
    return "".join(out)


def extract_args(code: str, open_paren: int) -> list[str]:
    """Split the call whose '(' is at open_paren into its top-level argument
    texts. Tracks (), [] and {} so lambda bodies and brace-init lists do not
    fool the comma split (comments and strings are already blanked)."""
    depth = 0
    args: list[str] = []
    start = open_paren + 1
    i = open_paren
    while i < len(code):
        c = code[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append(code[start:i])
                return args
        elif c == "," and depth == 1:
            args.append(code[start:i])
            start = i + 1
        i += 1
    args.append(code[start:])
    return args


def extract_first_arg(code: str, open_paren: int) -> str:
    """Return the text of the first argument of the call whose '(' is at
    open_paren."""
    return extract_args(code, open_paren)[0]


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.findings: list[tuple[Path, int, str, str]] = []
        self.span_names: set[str] = set()
        self.metric_names: set[str] = set()
        self._load_span_registry()
        self._load_metric_registry()

    def _load_span_registry(self) -> None:
        """Parse src/obs/spans.hpp into the set of known constants, flagging
        two constants that alias the same span string (which would silently
        merge unrelated phases in every trace and report)."""
        registry = self.root / SPAN_REGISTRY
        if not registry.is_file():
            self.findings.append((registry, 1, "span-registry",
                                  "span registry header missing"))
            return
        raw = registry.read_text(encoding="utf-8")
        raw_lines = raw.splitlines()
        seen: dict[str, str] = {}
        for m in REGISTRY_CONST_RE.finditer(raw):
            name, value = m.group(1), m.group(2)
            self.span_names.add(name)
            lineno = raw.count("\n", 0, m.start()) + 1
            if value in seen:
                self.report(registry, lineno, "span-registry",
                            f"{name} duplicates span string {value!r} "
                            f"already used by {seen[value]}", raw_lines)
            else:
                seen[value] = name

    def _load_metric_registry(self) -> None:
        """Parse src/obs/metric_names.hpp into the set of known constants,
        flagging two constants that alias the same metric string (which would
        silently merge unrelated series in every snapshot and exposition)."""
        registry = self.root / METRIC_REGISTRY
        if not registry.is_file():
            self.findings.append((registry, 1, "metric-name-literal",
                                  "metric-name registry header missing"))
            return
        raw = registry.read_text(encoding="utf-8")
        raw_lines = raw.splitlines()
        seen: dict[str, str] = {}
        for m in REGISTRY_CONST_RE.finditer(raw):
            name, value = m.group(1), m.group(2)
            self.metric_names.add(name)
            lineno = raw.count("\n", 0, m.start()) + 1
            if value in seen:
                self.report(registry, lineno, "metric-name-literal",
                            f"{name} duplicates metric string {value!r} "
                            f"already used by {seen[value]}", raw_lines)
            else:
                seen[value] = name

    def report(self, path: Path, lineno: int, rule: str, message: str,
               raw_lines: list[str]) -> None:
        # A suppression may sit on the finding's line or, for statements the
        # formatter wraps, on the line right after it.
        for candidate in raw_lines[lineno - 1:lineno + 1]:
            m = SUPPRESS_RE.search(candidate)
            if m and rule in re.split(r"\s*,\s*", m.group(1)):
                return
        self.findings.append((path, lineno, rule, message))

    def lint_file(self, path: Path) -> None:
        rel = path.relative_to(self.root).as_posix()
        raw = path.read_text(encoding="utf-8")
        raw_lines = raw.splitlines()
        code = strip_comments_and_strings(raw)

        def line_of(offset: int) -> int:
            return code.count("\n", 0, offset) + 1

        for m in NAKED_NEW_RE.finditer(code):
            self.report(path, line_of(m.start()), "naked-new",
                        "naked `new`; use std::vector / std::make_unique", raw_lines)
        for m in ALLOC_CALL_RE.finditer(code):
            self.report(path, line_of(m.start()), "naked-new",
                        "manual C allocation; use RAII containers", raw_lines)

        if rel.startswith(POW_HOT_DIRS):
            for m in POW_RE.finditer(code):
                call = code[m.end() - 1:]
                depth, j = 0, 0
                args_end = len(call)
                for j, c in enumerate(call):
                    if c == "(":
                        depth += 1
                    elif c == ")":
                        depth -= 1
                        if depth == 0:
                            args_end = j
                            break
                args = call[1:args_end]
                comma = -1
                depth = 0
                for j, c in enumerate(args):
                    if c == "(":
                        depth += 1
                    elif c == ")":
                        depth -= 1
                    elif c == "," and depth == 0:
                        comma = j
                if comma < 0:
                    continue
                exponent = args[comma + 1:].strip()
                # Integer-looking exponent: no decimal point, no float
                # suffix/exponent marker, not a named double.
                if "." not in exponent and not re.search(r"\d[eE][-+]?\d", exponent):
                    self.report(path, line_of(m.start()), "pow-integer-exponent",
                                f"std::pow with integer exponent `{exponent}` in a hot "
                                "kernel; use ipow() from multipole/ipow.hpp", raw_lines)

        def check_span_arg(arg: str, offset: int, context: str) -> None:
            m = SPAN_CONST_RE.fullmatch(arg.strip())
            if m is None:
                self.report(path, line_of(offset), "span-registry",
                            f"{context} must be a span-registry constant "
                            "(obs::span::kFoo from src/obs/spans.hpp)", raw_lines)
            elif self.span_names and m.group(1) not in self.span_names:
                self.report(path, line_of(offset), "span-registry",
                            f"{context} references span::{m.group(1)}, which is "
                            "not defined in src/obs/spans.hpp", raw_lines)

        if rel not in SPAN_EXEMPT_FILES:
            for m in SPAN_RE.finditer(code):
                paren = m.start(1) if m.group(1) else m.start(2)
                check_span_arg(extract_first_arg(code, paren), m.start(),
                               "PhaseSpan/ScopedTimer/RequestScope/record_timeline_span name")
            for m in RECORD_SPAN_RE.finditer(code):
                args = extract_args(code, m.start(1))
                if len(args) >= 2:
                    check_span_arg(args[1], m.start(), "record_span name")
            for m in PARALLEL_FOR_RE.finditer(code):
                args = extract_args(code, m.start(1))
                last = args[-1].strip() if args else ""
                # The trace name is the optional trailing argument after the
                # cancellation token. An omitted name (lambda body, token, or
                # nullptr in trailing position) falls back to the registry's
                # kParallelFor; only a name-shaped trailing argument — a raw
                # string literal (blanked to \x01...\x01 markers) or a
                # span-constant reference — is checked.
                if re.fullmatch(r"\x01[^\x01]*\x01", last) or SPAN_CONST_RE.fullmatch(last):
                    check_span_arg(last, m.start(), "parallel_for trace name")

        if rel != METRIC_REGISTRY:
            for m in METRIC_CALL_RE.finditer(code):
                paren = m.start(1) if m.group(1) else m.start(2)
                first = extract_first_arg(code, paren).strip()
                if BLANKED_STRING_RE.fullmatch(first):
                    self.report(path, line_of(m.start()), "metric-name-literal",
                                "metric name must be a metric-registry constant "
                                "(obs::metric::kFoo from src/obs/metric_names.hpp)",
                                raw_lines)
                else:
                    c = METRIC_CONST_RE.fullmatch(first)
                    if c and self.metric_names and c.group(1) not in self.metric_names:
                        self.report(path, line_of(m.start()), "metric-name-literal",
                                    f"references metric::{c.group(1)}, which is not "
                                    "defined in src/obs/metric_names.hpp", raw_lines)

        if rel == HOT_ATOMIC_FILES[0] or rel.startswith(HOT_ATOMIC_FILES[1]):
            for m in ATOMIC_OP_RE.finditer(code):
                stmt_end = code.find(";", m.end())
                stmt = code[m.start():stmt_end if stmt_end >= 0 else len(code)]
                if "memory_order_relaxed" not in stmt:
                    self.report(path, line_of(m.start()), "non-relaxed-atomic",
                                "atomic op on a hot path without explicit "
                                "std::memory_order_relaxed", raw_lines)

        if rel.startswith(("src/core/", "src/engine/", "src/service/")) \
                and rel.endswith(".cpp"):
            if EVAL_ENTRY_RE.search(code) and not VALIDATES_RE.search(code):
                self.report(path, 1, "evaluator-validates",
                            "evaluator entry point without a validate()/"
                            "enforce_validation()/assign_degrees() call", raw_lines)

        if rel.endswith(".hpp") and not PRAGMA_ONCE_RE.search(raw):
            self.report(path, 1, "header-hygiene",
                        "header missing `#pragma once`", raw_lines)
        seen_includes: dict[str, int] = {}
        for idx, line in enumerate(raw_lines, 1):
            inc = INCLUDE_LINE_RE.match(line)
            if inc is None:
                continue
            target = inc.group(1)
            if target in seen_includes:
                self.report(path, idx, "header-hygiene",
                            f"duplicate #include {target} (first included at "
                            f"line {seen_includes[target]})", raw_lines)
            else:
                seen_includes[target] = idx

        if rel.startswith(("src/engine/", "src/service/")):
            # `throw` as a keyword only: value_or_throw / throw_error contain
            # no word boundary before "throw" and are the sanctioned escape
            # hatches (defined in src/util/, outside this rule's scope).
            for m in THROW_RE.finditer(code):
                self.report(path, line_of(m.start()), "engine-returns-expected",
                            "raw `throw` in the engine/service layer; return "
                            "a typed Error via treecode::Expected instead",
                            raw_lines)

    def run(self) -> int:
        files = sorted((self.root / "src").rglob("*.hpp")) + \
                sorted((self.root / "src").rglob("*.cpp"))
        for path in files:
            self.lint_file(path)
        for path, lineno, rule, message in self.findings:
            rel = path.relative_to(self.root).as_posix()
            print(f"{rel}:{lineno}: [{rule}] {message}")
        count = len(self.findings)
        print(f"treecode_lint: {len(files)} files, {count} finding(s)")
        return 1 if count else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: the checkout containing this script)")
    opts = parser.parse_args()
    if not (opts.root / "src").is_dir():
        print(f"error: {opts.root} has no src/ directory", file=sys.stderr)
        return 2
    return Linter(opts.root).run()


if __name__ == "__main__":
    sys.exit(main())
