#!/usr/bin/env python3
"""Validate a treecode-analyze-report/v1 produced by treecode_analyze.py.

The report must conform to scripts/analyze_report_schema.json (checked
with the same stdlib subset validator that validate_report.py uses).
Cross-field checks: the counts block must agree with the findings array
(total, suppressed split, per-rule tallies), every finding's rule must
appear in the report's rule table, and finding lines must be positive.

Usage: validate_analyze_report.py REPORT.json [SCHEMA.json]
       validate_analyze_report.py --self-test
Exit status 0 on success, 1 with a path-qualified message on the first error.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from validate_report import load_schema, validate  # noqa: E402


def validate_report_dict(report, schema):
    """Return a list of error strings (empty when the report conforms)."""
    errors = list(validate(report, schema))
    if errors:
        return errors
    findings = report["findings"]
    counts = report["counts"]
    rules = report["rules"]
    suppressed = sum(1 for f in findings if f["suppressed"])
    by_rule = {}
    for f in findings:
        by_rule[f["rule"]] = by_rule.get(f["rule"], 0) + 1
        if f["rule"] not in rules:
            errors.append(f"finding rule {f['rule']!r} missing from the "
                          "rules table")
        if f["line"] < 1:
            errors.append(f"finding {f['file']}:{f['line']} has a "
                          "non-positive line")
    if counts["total"] != len(findings):
        errors.append(f"counts.total={counts['total']} but "
                      f"{len(findings)} findings listed")
    if counts["suppressed"] != suppressed:
        errors.append(f"counts.suppressed={counts['suppressed']} but "
                      f"{suppressed} findings are marked suppressed")
    if counts["unsuppressed"] != len(findings) - suppressed:
        errors.append(f"counts.unsuppressed={counts['unsuppressed']} "
                      f"disagrees with findings ({len(findings) - suppressed})")
    for rule, n in by_rule.items():
        if counts["by_rule"].get(rule, 0) != n:
            errors.append(f"counts.by_rule[{rule!r}]="
                          f"{counts['by_rule'].get(rule, 0)} but {n} "
                          "findings carry that rule")
    return errors


def validate_file(path, schema):
    try:
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"cannot read report: {e}"]
    return validate_report_dict(report, schema)


def _good_report():
    return {
        "schema": "treecode-analyze-report/v1",
        "rules": {"governor-raii": "manual reserve/release",
                  "lock-order-cycle": "acquisition cycle"},
        "files_scanned": 3,
        "functions": 12,
        "findings": [
            {"rule": "governor-raii", "file": "src/a.cpp", "line": 10,
             "message": "manual release", "suppressed": False},
            {"rule": "governor-raii", "file": "src/a.cpp", "line": 20,
             "message": "manual reserve", "suppressed": True},
        ],
        "counts": {"total": 2, "unsuppressed": 1, "suppressed": 1,
                   "by_rule": {"governor-raii": 2, "lock-order-cycle": 0}},
        "provenance": {"git_sha": "deadbeef", "frontend": "tokens",
                       "frontend_detail": "stdlib micro-parser",
                       "python": "3.10.0", "host": "ci", "utc":
                       "2026-01-01T00:00:00Z"},
    }


def _self_test():
    import copy
    import tempfile

    cases = []  # (report, expect_ok)
    cases.append((_good_report(), True))
    r = _good_report()
    r["counts"]["total"] = 5
    cases.append((r, False))            # total disagrees
    r = _good_report()
    r["counts"]["suppressed"] = 0
    cases.append((r, False))            # suppressed split disagrees
    r = _good_report()
    r["findings"][0]["rule"] = "unheard-of"
    cases.append((r, False))            # rule missing from table
    r = _good_report()
    r["findings"][0]["line"] = 0
    cases.append((r, False))            # non-positive line
    r = _good_report()
    del r["provenance"]["git_sha"]
    cases.append((r, False))            # schema violation
    r = _good_report()
    r["schema"] = "treecode-analyze-report/v0"
    cases.append((r, False))            # wrong schema tag
    r = _good_report()
    r["counts"]["by_rule"]["governor-raii"] = 7
    cases.append((r, False))            # per-rule tally disagrees

    schema = load_schema("analyze_report_schema.json")
    for i, (rep, expect_ok) in enumerate(cases):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump(rep, f)
            path = f.name
        errors = validate_file(path, schema)
        os.unlink(path)
        if bool(errors) == expect_ok:
            print(f"self-test case {i} failed: expect_ok={expect_ok}, "
                  f"errors={errors}", file=sys.stderr)
            return 1
    print("OK validate_analyze_report self-test")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return _self_test()
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 1
    path = argv[1]
    schema = load_schema("analyze_report_schema.json",
                         argv[2] if len(argv) == 3 else None)
    errors = validate_file(path, schema)
    if errors:
        for e in errors[:20]:
            print(f"FAIL {path}: {e}", file=sys.stderr)
        return 1
    print(f"OK {path}: valid treecode-analyze-report/v1")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
