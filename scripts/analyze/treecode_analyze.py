#!/usr/bin/env python3
"""treecode-analyze: determinism, resource-safety, lock-order and
source-hygiene checks.

Runs the rule engine (scripts/analyze/rules.py) over facts extracted
from the C++ sources by one of two interchangeable frontends:

  libclang  exact AST facts via python clang.cindex, driven by the
            exported build/compile_commands.json. Preferred; used in CI.
  tokens    stdlib-only token micro-parser. No dependencies; facts are
            a sound-enough under-approximation for local runs and for
            environments without libclang.

plus one lexical pass (lexical.py) run after either frontend.

`--frontend auto` (default) picks libclang when importable, else tokens
with a note. `--require-libclang` turns that fallback into a hard error
(exit 2) so the CI job cannot silently lose precision.

Suppressions: `// analyze-allow(rule)` (comma-list or `*`) on the
finding line or alone on the line above. For the path rules
(engine-throw-path, lock-order-cycle) a suppression on any reported
call/edge line also applies.

Exit status: 0 no unsuppressed findings, 1 findings, 2 usage or
environment error.

Usage:
  treecode_analyze.py [paths...] [--report out.json] [--rules a,b]
  treecode_analyze.py --list-rules
  treecode_analyze.py --self-test
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import frontend_tokens  # noqa: E402
import lexical  # noqa: E402
import report as report_mod  # noqa: E402
import rules as rules_mod  # noqa: E402

DEFAULT_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def collect_sources(root: str, paths: list[str]) -> list[str]:
    """Repo-relative .hpp/.cpp files under the given paths (default src)."""
    rels: list[str] = []
    for p in (paths or ["src"]):
        ap = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(ap):
            rels.append(os.path.relpath(ap, root))
            continue
        for dirpath, _dirs, names in os.walk(ap):
            for name in names:
                if name.endswith((".hpp", ".cpp")):
                    rels.append(os.path.relpath(os.path.join(dirpath, name),
                                                root))
    return sorted(set(rels))


def extract_all(root: str, rels: list[str], frontend: str,
                build_dir: str) -> tuple[list, str, str]:
    """Extract facts for every file: the frontend's semantic facts plus the
    lexical pass. Returns (facts, frontend_used, detail)."""
    used, detail = "tokens", "stdlib token micro-parser"
    if frontend in ("auto", "libclang"):
        import frontend_clang  # noqa: PLC0415
        ok, why = frontend_clang.available()
        if ok:
            used, detail = "libclang", why
        elif frontend == "libclang":
            raise RuntimeError(f"libclang frontend requested but {why}")
        else:
            print(f"note: {why}; falling back to the token frontend",
                  file=sys.stderr)
    facts = []
    for rel in rels:
        path = os.path.join(root, rel)
        with open(path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        ff = frontend_clang.extract(path, rel, build_dir) \
            if used == "libclang" else frontend_tokens.extract(rel, text)
        facts.append(lexical.attach(ff, text))
    return facts, used, detail


def run(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="treecode-analyze",
        description=__doc__.split("\n\n")[0],
    )
    ap.add_argument("paths", nargs="*",
                    help="files or directories, repo-relative (default: src)")
    ap.add_argument("--repo-root", default=DEFAULT_ROOT)
    ap.add_argument("--build-dir", default=None,
                    help="directory holding compile_commands.json "
                         "(default: REPO_ROOT/build)")
    ap.add_argument("--frontend", choices=("auto", "tokens", "libclang"),
                    default="auto")
    ap.add_argument("--require-libclang", action="store_true",
                    help="fail (exit 2) instead of falling back to the "
                         "token frontend")
    ap.add_argument("--report", metavar="PATH",
                    help="write a treecode-analyze-report/v1 JSON file")
    ap.add_argument("--rules", metavar="CSV",
                    help="comma-separated rule subset to run")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--show-suppressed", action="store_true",
                    help="also print suppressed findings")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in rule smoke test and exit")
    args = ap.parse_args(argv)

    if args.list_rules:
        width = max(len(r) for r in rules_mod.RULES)
        for name, desc in rules_mod.RULES.items():
            print(f"{name:<{width}}  {desc}")
        return 0
    if args.self_test:
        return self_test()

    selected = None
    if args.rules:
        selected = {r.strip() for r in args.rules.split(",") if r.strip()}
        unknown = selected - set(rules_mod.RULES)
        if unknown:
            print(f"error: unknown rule(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    frontend = args.frontend
    if args.require_libclang:
        frontend = "libclang"
    root = os.path.abspath(args.repo_root)
    build_dir = args.build_dir or os.path.join(root, "build")
    rels = collect_sources(root, args.paths)
    if not rels:
        print("error: no .hpp/.cpp sources found", file=sys.stderr)
        return 2
    try:
        facts, used, detail = extract_all(root, rels, frontend, build_dir)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    findings = rules_mod.run_rules(facts, selected)
    report_mod.print_findings(findings, show_suppressed=args.show_suppressed)
    unsuppressed = sum(1 for f in findings if not f.suppressed)
    suppressed = len(findings) - unsuppressed
    if args.report:
        rep = report_mod.build(
            findings, rules_mod.RULES, files_scanned=len(rels),
            functions=sum(len(f.functions) for f in facts), repo_root=root,
            frontend=used, frontend_detail=detail)
        report_mod.write(rep, args.report)
    print(f"treecode-analyze [{used}]: {len(rels)} files, "
          f"{unsuppressed} finding(s), {suppressed} suppressed")
    return 1 if unsuppressed else 0


# --- built-in smoke test --------------------------------------------------

_SMOKE_BAD = """
#include <unordered_map>
struct Governor { bool try_reserve(unsigned long n, const char* l); };
class Widget {
 public:
  bool try_frob();
 private:
  Governor governor_;
  double total_;
  std::unordered_map<int, double> weights_;
};
bool Widget::try_frob() {
  if (!governor_.try_reserve(64, "widget")) { return false; }
  for (const auto& kv : weights_) {
    total_ += kv.second;
  }
  int* scratch = new int(0);
  return true;
}
"""
_SMOKE_RULES = {"fp-unordered-accumulation", "governor-raii", "naked-new"}
# The idiomatic fix of each seeded violation.
_SMOKE_CLEAN = _SMOKE_BAD.replace("unordered_map", "map").replace(
    '  if (!governor_.try_reserve(64, "widget")) { return false; }\n', "").replace(
    "new int(0)", "nullptr")


def self_test() -> int:
    """Quick confidence check that the token frontend and the lexical pass
    feed the rules: the seeded violations are detected and their clean
    counterpart is not. The full per-rule matrix lives in
    scripts/analyze/test_analyze.py."""
    def fired(text: str) -> set[str]:
        facts = lexical.attach(frontend_tokens.extract("src/smoke.cpp", text),
                               text)
        return {f.rule for f in rules_mod.run_rules([facts], _SMOKE_RULES)
                if not f.suppressed}
    failures = [f"seeded {rule} violation not detected"
                for rule in sorted(_SMOKE_RULES - fired(_SMOKE_BAD))]
    if fired(_SMOKE_CLEAN):
        failures.append(f"clean counterpart flagged: {fired(_SMOKE_CLEAN)}")
    for msg in failures:
        print(f"self-test FAIL: {msg}", file=sys.stderr)
    if failures:
        return 1
    print("OK treecode-analyze self-test")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
