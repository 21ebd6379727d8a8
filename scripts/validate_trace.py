#!/usr/bin/env python3
"""Validate a retained-request-trace JSONL export (treecode-trace/v1).

Each line must parse as JSON and conform to scripts/trace_schema.json
(checked with the same stdlib subset validator that validate_report.py
uses). Per-trace structural checks:

  - trace_id is 32 lowercase hex chars and nonzero; span/parent/flow ids
    are 16 lowercase hex chars; trace_ids are unique across the file.
  - reason is one the tail sampler can produce ("error", "degraded",
    "deadline", "slo", "slow", "forced", "sampled").
  - kind grammar: every span kind is request/queue/batch/phase; exactly one
    root span (parent id zero) per trace, of kind "request" or "batch";
    every non-root span's parent resolves to another span of the trace.
  - timestamps: start_us <= end_us on every span, and every child span's
    window is contained in the root span's window.
  - flow links only appear on "batch" spans, at most 8 (the engine's SoA
    register block caps batch width), and each must resolve — across the
    whole file — to a retained "request"-kind span (the batch's fan-in).

With a request-record sink as the second positional argument, the
tail-sampling invariant is checked against it: every record carrying a
nonzero trace_id that is errored (ok=false), degraded (rung >= 1: served
by the fresh traversal or direct summation, not by replay) or
deadline-missed (outcome "deadline") must have its trace retained in the
export; for fulfilled service requests (api "service_serve", batch_seq > 0)
the retained trace must additionally cover the request's full path — a
"service.request" root, a "service.queue_wait" span — and some batch trace
in the file must flow-link to the request's root span and contain a replay
phase span (an "engine.*" or "time.*" name).

Usage: validate_trace.py TRACES.jsonl [TELEMETRY.jsonl] [--schema SCHEMA.json]
       validate_trace.py --self-test
Exit status 0 on success, 1 with a line-qualified message on the first error.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from validate_report import load_schema, validate  # noqa: E402

_REASONS = {"error", "degraded", "deadline", "slo", "slow", "forced",
            "sampled"}
_KINDS = {"request", "queue", "batch", "phase"}
_ROOT_KINDS = {"request", "batch"}
_MAX_FLOWS = 8
_ZERO_SPAN = "0" * 16
_ZERO_TRACE = "0" * 32
_TRAVERSAL_RUNG = 1  # core ServeRung::kTraversal: the first degraded rung


def _hex_id(value, width):
    return (isinstance(value, str) and len(value) == width
            and all(c in "0123456789abcdef" for c in value))


def _check_trace(lineno, trace, errors):
    """Structural checks for one parsed trace line."""
    trace_id = trace.get("trace_id")
    if not _hex_id(trace_id, 32) or trace_id == _ZERO_TRACE:
        errors.append(f"line {lineno}: trace_id {trace_id!r} is not 32 "
                      "lowercase hex chars (nonzero)")
    reason = trace.get("reason")
    if reason not in _REASONS:
        errors.append(f"line {lineno}: unknown keep reason {reason!r}")
    spans = trace.get("spans", [])
    if not spans:
        errors.append(f"line {lineno}: trace has no spans")
        return
    ids = set()
    roots = []
    for i, span in enumerate(spans):
        where = f"line {lineno} span {i}"
        sid = span.get("span_id")
        if not _hex_id(sid, 16) or sid == _ZERO_SPAN:
            errors.append(f"{where}: span_id {sid!r} is not 16 lowercase "
                          "hex chars (nonzero)")
        if sid in ids:
            errors.append(f"{where}: duplicate span_id {sid}")
        ids.add(sid)
        kind = span.get("kind")
        if kind not in _KINDS:
            errors.append(f"{where}: unknown kind {kind!r}")
        if span.get("start_us", 0) > span.get("end_us", 0):
            errors.append(f"{where}: start_us {span.get('start_us')} > "
                          f"end_us {span.get('end_us')}")
        flows = span.get("flows", [])
        if flows and kind != "batch":
            errors.append(f"{where}: flow links on a {kind!r} span "
                          "(only batch spans fan in)")
        if len(flows) > _MAX_FLOWS:
            errors.append(f"{where}: {len(flows)} flow links exceeds the "
                          f"batch-width cap {_MAX_FLOWS}")
        for flow in flows:
            if not _hex_id(flow, 16) or flow == _ZERO_SPAN:
                errors.append(f"{where}: flow id {flow!r} is not 16 "
                              "lowercase hex chars (nonzero)")
        if span.get("parent_span_id") == _ZERO_SPAN:
            roots.append(span)
    if len(roots) != 1:
        errors.append(f"line {lineno}: expected exactly one root span "
                      f"(parent id zero), found {len(roots)}")
        return
    root = roots[0]
    if root.get("kind") not in _ROOT_KINDS:
        errors.append(f"line {lineno}: root span kind {root.get('kind')!r} "
                      "is not request/batch")
    for i, span in enumerate(spans):
        parent = span.get("parent_span_id")
        if parent != _ZERO_SPAN and parent not in ids:
            errors.append(f"line {lineno} span {i}: parent {parent!r} not "
                          "found in this trace")
        if span is not root:
            if (span.get("start_us", 0) < root.get("start_us", 0)
                    or span.get("end_us", 0) > root.get("end_us", 0)):
                errors.append(f"line {lineno} span {i}: window "
                              f"[{span.get('start_us')}, {span.get('end_us')}] "
                              "escapes the root span's window "
                              f"[{root.get('start_us')}, {root.get('end_us')}]")


def validate_file(path, schema, telemetry_path=None):
    """Return a list of error strings (empty when the export conforms)."""
    errors = []
    traces = []
    seen_ids = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                trace = json.loads(line)
            except json.JSONDecodeError as e:
                errors.append(f"line {lineno}: not JSON: {e}")
                continue
            for err in validate(trace, schema):
                errors.append(f"line {lineno}: {err}")
            if not isinstance(trace, dict):
                continue
            trace_id = trace.get("trace_id")
            if trace_id in seen_ids:
                errors.append(f"line {lineno}: duplicate trace_id {trace_id}")
            seen_ids.add(trace_id)
            _check_trace(lineno, trace, errors)
            traces.append((lineno, trace))

    # Flow links resolve file-wide: each names a retained request-root span.
    request_roots = set()
    for _, trace in traces:
        for span in trace.get("spans", []):
            if (span.get("kind") == "request"
                    and span.get("parent_span_id") == _ZERO_SPAN):
                request_roots.add(span.get("span_id"))
    for lineno, trace in traces:
        for i, span in enumerate(trace.get("spans", [])):
            for flow in span.get("flows", []):
                if flow not in request_roots:
                    errors.append(
                        f"line {lineno} span {i}: flow link {flow} does not "
                        "resolve to a retained request root span in this file")

    if telemetry_path is not None:
        errors.extend(_check_tail_invariant(telemetry_path, traces))
    return errors


def _check_tail_invariant(telemetry_path, traces):
    """Every errored/degraded/deadline-missed telemetry record's trace must
    be retained; fulfilled service requests must be covered end to end."""
    errors = []
    by_id = {t.get("trace_id"): t for _, t in traces}
    flows_by_batch = {}  # trace -> set of flow-linked request root span ids
    replay_batches = set()  # batch traces containing a replay phase span
    for _, trace in traces:
        for span in trace.get("spans", []):
            if span.get("kind") == "batch":
                flows_by_batch.setdefault(trace.get("trace_id"),
                                          set()).update(span.get("flows", []))
            name = span.get("name", "")
            if name.startswith(("engine.", "time.")):
                replay_batches.add(trace.get("trace_id"))
    linked_roots = set()
    for batch_id, flows in flows_by_batch.items():
        if batch_id in replay_batches:
            linked_roots.update(flows)

    with open(telemetry_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            trace_id = record.get("trace_id", _ZERO_TRACE)
            if trace_id == _ZERO_TRACE:
                continue
            unhealthy = (not record.get("ok", True)
                         or record.get("rung", 0) >= _TRAVERSAL_RUNG
                         or record.get("outcome") == "deadline")
            if unhealthy and trace_id not in by_id:
                errors.append(
                    f"telemetry line {lineno}: {record.get('api')} record "
                    f"(ok={record.get('ok')}, rung={record.get('rung')}, "
                    f"outcome={record.get('outcome')}) has trace {trace_id} "
                    "but the trace was not retained")
                continue
            if (record.get("api") == "service_serve"
                    and record.get("batch_seq", 0) > 0
                    and trace_id in by_id):
                trace = by_id[trace_id]
                names = {s.get("name") for s in trace.get("spans", [])}
                root_id = next(
                    (s.get("span_id") for s in trace.get("spans", [])
                     if s.get("parent_span_id") == _ZERO_SPAN), None)
                if "service.request" not in names:
                    errors.append(f"telemetry line {lineno}: retained trace "
                                  f"{trace_id} lacks its service.request span")
                if "service.queue_wait" not in names:
                    errors.append(f"telemetry line {lineno}: retained trace "
                                  f"{trace_id} lacks its service.queue_wait "
                                  "span")
                if root_id not in linked_roots:
                    errors.append(
                        f"telemetry line {lineno}: no retained batch trace "
                        f"with a replay phase flow-links to request root "
                        f"{root_id} of trace {trace_id}")
    return errors


def _span(name, kind, span_id, parent, start, end, flows=()):
    return {"name": name, "kind": kind, "span_id": span_id,
            "parent_span_id": parent, "tid": 0, "start_us": start,
            "end_us": end, "flows": list(flows)}


def _self_test():
    import copy
    import tempfile

    rid = "ab" * 8  # request root span id
    request = {
        "schema": "treecode-trace/v1", "trace_id": "11" * 16,
        "reason": "error",
        "spans": [
            _span("service.request", "request", rid, _ZERO_SPAN, 0, 100),
            _span("service.req.submit", "phase", "ac" * 8, rid, 0, 5),
            _span("service.queue_wait", "queue", "ad" * 8, rid, 5, 40),
        ],
    }
    batch = {
        "schema": "treecode-trace/v1", "trace_id": "22" * 16,
        "reason": "forced",
        "spans": [
            _span("service.batch", "batch", "ba" * 8, _ZERO_SPAN, 40, 90,
                  [rid]),
            _span("time.engine_replay", "phase", "bb" * 8, "ba" * 8, 45, 85),
        ],
    }

    cases = []  # (trace_lines, telemetry_lines_or_None, expect_ok)
    cases.append(([request, batch], None, True))
    cases.append(([], None, True))  # an empty export is valid (nothing kept)
    bad_reason = copy.deepcopy(request)
    bad_reason["reason"] = "vibes"
    cases.append(([bad_reason], None, False))
    two_roots = copy.deepcopy(request)
    two_roots["spans"].append(
        _span("service.request", "request", "ae" * 8, _ZERO_SPAN, 0, 100))
    cases.append(([two_roots], None, False))
    orphan = copy.deepcopy(request)
    orphan["spans"][1]["parent_span_id"] = "ee" * 8
    cases.append(([orphan], None, False))
    backwards = copy.deepcopy(request)
    backwards["spans"][2]["start_us"] = 50
    backwards["spans"][2]["end_us"] = 40
    cases.append(([backwards], None, False))
    escapes = copy.deepcopy(request)
    escapes["spans"][2]["end_us"] = 200  # child past the root window
    cases.append(([escapes], None, False))
    dangling = copy.deepcopy(batch)
    dangling["spans"][0]["flows"] = ["ef" * 8]  # no such request root
    cases.append(([request, dangling], None, False))
    flows_on_phase = copy.deepcopy(request)
    flows_on_phase["spans"][1]["flows"] = [rid]
    cases.append(([flows_on_phase, batch], None, False))

    serve = {
        "schema": "treecode-request-record/v3", "api": "service_serve",
        "trace_id": "11" * 16, "ok": False, "rung": 0, "outcome": "deadline",
        "batch_seq": 1,
    }
    cases.append(([request, batch], [serve], True))
    cases.append(([batch], [serve], False))  # unhealthy trace not retained
    no_queue = copy.deepcopy(request)
    no_queue["spans"] = [s for s in no_queue["spans"]
                         if s["name"] != "service.queue_wait"]
    cases.append(([no_queue, batch], [serve], False))
    no_flow = copy.deepcopy(batch)
    no_flow["spans"][0]["flows"] = []
    cases.append(([request, no_flow], [serve], False))
    healthy = copy.deepcopy(serve)
    healthy["ok"] = True
    healthy["outcome"] = "ok"
    healthy["batch_seq"] = 0  # admission record: retention-only rule
    cases.append(([], [healthy], True))  # rung-0 replay, sampled out: fine
    degraded = copy.deepcopy(healthy)
    degraded["rung"] = 1  # fresh traversal: must be retained
    cases.append(([], [degraded], False))

    schema = load_schema("trace_schema.json")
    for i, (lines, tele, expect_ok) in enumerate(cases):
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                         delete=False) as f:
            for trace in lines:
                f.write(json.dumps(trace) + "\n")
            path = f.name
        tele_path = None
        if tele is not None:
            with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                             delete=False) as f:
                for record in tele:
                    f.write(json.dumps(record) + "\n")
                tele_path = f.name
        errors = validate_file(path, schema, tele_path)
        os.unlink(path)
        if tele_path is not None:
            os.unlink(tele_path)
        if bool(errors) == expect_ok:
            print(f"self-test case {i} failed: expect_ok={expect_ok}, "
                  f"errors={errors}", file=sys.stderr)
            return 1
    print("OK validate_trace self-test")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return _self_test()
    args = argv[1:]
    schema_path = None
    if "--schema" in args:
        i = args.index("--schema")
        schema_path = args[i + 1]
        del args[i:i + 2]
    if len(args) not in (1, 2):
        print(__doc__.strip(), file=sys.stderr)
        return 1
    path = args[0]
    telemetry_path = args[1] if len(args) == 2 else None
    schema = load_schema("trace_schema.json", schema_path)
    errors = validate_file(path, schema, telemetry_path)
    if errors:
        for e in errors[:20]:
            print(f"FAIL {path}: {e}", file=sys.stderr)
        return 1
    with open(path, encoding="utf-8") as f:
        n = sum(1 for line in f if line.strip())
    suffix = " (tail invariant checked)" if telemetry_path else ""
    print(f"OK {path}: {n} valid treecode-trace/v1 line(s){suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
