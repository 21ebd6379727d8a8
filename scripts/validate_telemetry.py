#!/usr/bin/env python3
"""Validate a request-record JSONL sink (treecode-request-record/v3).

Each line must parse as JSON and conform to
scripts/telemetry_record_schema.json (checked with the same stdlib subset
validator that validate_report.py uses). Cross-line checks: seq values are
unique, the known enumerations (api, rung_name) only contain values the
emitter can produce, trace_id values are 32 lowercase hex chars, and
nonzero trace ids are unique per (trace_id, api) — each entry
point records one exit, while the same trace legitimately reappears across
*different* apis (a service_submit admission and its service_serve
fulfillment share one trace). Line *order* is not checked — concurrent
emitters take their seq before the sink lock, so a sink may interleave.

Usage: validate_telemetry.py RECORDS.jsonl [SCHEMA.json]
       validate_telemetry.py --self-test
Exit status 0 on success, 1 with a line-qualified message on the first error.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from validate_report import load_schema, validate  # noqa: E402

_APIS = {
    "compile", "compile_self", "update_charges", "update_charges_sorted",
    "evaluate_plan", "evaluate_at", "evaluate_self", "evaluate_batch",
    "service_register", "service_submit", "service_unregister",
    "service_serve",
}
_RUNGS = {"replay", "traversal", "direct", "none"}
_ZERO_TRACE = "0" * 32


def _valid_trace_id(value):
    return (isinstance(value, str) and len(value) == 32
            and all(c in "0123456789abcdef" for c in value))


def validate_file(path, schema):
    """Return a list of error strings (empty when the sink conforms)."""
    errors = []
    seqs = set()
    trace_keys = set()
    n = 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            n += 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                errors.append(f"line {lineno}: not JSON: {e}")
                continue
            for err in validate(record, schema):
                errors.append(f"line {lineno}: {err}")
            if not isinstance(record, dict):
                continue
            seq = record.get("seq")
            if seq in seqs:
                errors.append(f"line {lineno}: duplicate seq {seq}")
            seqs.add(seq)
            api = record.get("api")
            if api not in _APIS:
                errors.append(f"line {lineno}: unknown api {api!r}")
            rung_name = record.get("rung_name")
            if rung_name not in _RUNGS:
                errors.append(f"line {lineno}: unknown rung_name {rung_name!r}")
            key = record.get("plan_key", "")
            if not (isinstance(key, str) and key.startswith("0x")
                    and len(key) == 18):
                errors.append(f"line {lineno}: plan_key {key!r} is not an "
                              "0x-prefixed 16-digit hex string")
            trace_id = record.get("trace_id")
            if not _valid_trace_id(trace_id):
                errors.append(f"line {lineno}: trace_id {trace_id!r} is "
                              "not 32 lowercase hex chars")
            elif trace_id != _ZERO_TRACE:
                tk = (trace_id, api)
                if tk in trace_keys:
                    errors.append(f"line {lineno}: duplicate trace_id "
                                  f"{trace_id} for api {api!r}")
                trace_keys.add(tk)
    if n == 0:
        errors.append("empty sink: expected at least one record line")
    return errors


def _self_test():
    good = {
        "schema": "treecode-request-record/v3", "seq": 0, "ts_us": 12,
        "api": "evaluate_plan", "plan_key": "0x00000000deadbeef", "rung": 0,
        "rung_name": "replay", "outcome": "ok", "ok": True,
        "wall_seconds": 1e-3, "targets": 64, "plan_bytes": 10,
        "deadline_slack_seconds": None,
        "audit_max_tightness": 0.5, "threads": 4, "batch_width": 1,
        "trace_id": "0" * 32, "queue_wait_seconds": 0.0, "batch_seq": 0,
    }
    import copy
    import tempfile

    cases = []  # (lines, expect_ok)
    cases.append(([good], True))
    second = copy.deepcopy(good)
    second["seq"] = 1
    second["deadline_slack_seconds"] = 0.25
    cases.append(([good, second], True))
    cases.append(([good, good], False))  # duplicate seq
    bad_api = copy.deepcopy(good)
    bad_api["api"] = "teleport"
    cases.append(([bad_api], False))
    missing = copy.deepcopy(good)
    del missing["wall_seconds"]
    cases.append(([missing], False))
    bad_key = copy.deepcopy(good)
    bad_key["plan_key"] = "deadbeef"
    cases.append(([bad_key], False))
    cases.append(([], False))  # empty sink

    served = copy.deepcopy(good)
    served["seq"] = 2
    served["api"] = "service_serve"
    served["trace_id"] = "00c0ffee" * 4
    served["queue_wait_seconds"] = 1e-4
    served["batch_seq"] = 3
    v1 = {k: v for k, v in good.items()
          if k not in ("trace_id", "queue_wait_seconds", "batch_seq")}
    v1["schema"] = "treecode-request-record/v1"
    v1["seq"] = 7
    cases.append(([served, v1], False))  # nothing emits v1 any more
    old_rung = copy.deepcopy(good)
    old_rung["rung_name"] = "basis_replay"
    cases.append(([old_rung], False))  # the v2 ladder's rung names are gone
    untraced = copy.deepcopy(good)
    untraced["seq"] = 3  # logged outside any trace: zero id, repeatable
    cases.append(([served, good, untraced], True))
    missing_trace = copy.deepcopy(served)
    del missing_trace["trace_id"]
    cases.append(([missing_trace], False))  # trace_id is required
    bad_trace = copy.deepcopy(served)
    bad_trace["trace_id"] = "0xDEADBEEF"
    cases.append(([bad_trace], False))
    dup_trace = copy.deepcopy(served)
    dup_trace["seq"] = 5
    cases.append(([served, dup_trace], False))  # same trace_id + api
    cross_api = copy.deepcopy(served)
    cross_api["seq"] = 6
    cross_api["api"] = "service_submit"
    cases.append(([served, cross_api], True))  # same trace, different api

    schema = load_schema("telemetry_record_schema.json")
    for i, (lines, expect_ok) in enumerate(cases):
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                         delete=False) as f:
            for record in lines:
                f.write(json.dumps(record) + "\n")
            path = f.name
        errors = validate_file(path, schema)
        os.unlink(path)
        if bool(errors) == expect_ok:
            print(f"self-test case {i} failed: expect_ok={expect_ok}, "
                  f"errors={errors}", file=sys.stderr)
            return 1
    print("OK validate_telemetry self-test")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return _self_test()
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 1
    path = argv[1]
    schema = load_schema("telemetry_record_schema.json",
                         argv[2] if len(argv) == 3 else None)
    errors = validate_file(path, schema)
    if errors:
        for e in errors[:20]:
            print(f"FAIL {path}: {e}", file=sys.stderr)
        return 1
    with open(path, encoding="utf-8") as f:
        n = sum(1 for line in f if line.strip())
    print(f"OK {path}: {n} valid treecode-request-record/v3 line(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
