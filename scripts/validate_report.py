#!/usr/bin/env python3
"""Validate a treecode bench report against scripts/bench_report_schema.json.

Stdlib only (no jsonschema dependency): implements the subset of JSON Schema
the repository's schemas actually use — type, const, required, properties,
items, additionalProperties, $ref (to #/$defs/... within the same document),
and oneOf (telemetry_record_schema.json's record kinds). Reports must be v2.

Usage: validate_report.py REPORT.json [SCHEMA.json]
Exit status 0 on success, 1 with a path-qualified message on the first error.
"""

import json
import os
import sys

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "integer": int,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value, name):
    if name == "number" and isinstance(value, bool):
        return False  # bool is an int subclass in Python; JSON disagrees
    if name == "integer" and isinstance(value, bool):
        return False
    return isinstance(value, _TYPES[name])


def _resolve_ref(ref, root):
    if not ref.startswith("#/"):
        raise ValueError(f"unsupported $ref {ref!r} (only same-document refs)")
    node = root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def validate(value, schema, path="$", root=None):
    """Return a list of error strings (empty when the value conforms)."""
    if root is None:
        root = schema
    if "$ref" in schema:
        return validate(value, _resolve_ref(schema["$ref"], root), path, root)
    if "oneOf" in schema:
        branch_errors = []
        for branch in schema["oneOf"]:
            errors = validate(value, branch, path, root)
            if not errors:
                return []
            branch_errors.append(errors)
        # No branch matched; report the branch that got furthest (fewest
        # errors) so a near-miss record complains about its actual problem,
        # not about not being some other branch.
        best = min(branch_errors, key=len)
        return [f"{path}: no oneOf branch matched; closest branch errors:"] + best
    errors = []
    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected constant {schema['const']!r}, got {value!r}")
        return errors
    if "type" in schema:
        names = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_type_ok(value, n) for n in names):
            errors.append(f"{path}: expected type {'/'.join(names)}, "
                          f"got {type(value).__name__}")
            return errors
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, sub in value.items():
            if key in props:
                errors.extend(validate(sub, props[key], f"{path}.{key}", root))
            elif isinstance(extra, dict):
                errors.extend(validate(sub, extra, f"{path}.{key}", root))
    if isinstance(value, list) and isinstance(schema.get("items"), dict):
        for i, sub in enumerate(value):
            errors.extend(validate(sub, schema["items"], f"{path}[{i}]", root))
    return errors


def load_schema(filename, path=None):
    """Load the schema at `path`, or `filename` next to this script."""
    if path is None:
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), filename)
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 1
    report_path = argv[1]
    with open(report_path, encoding="utf-8") as f:
        report = json.load(f)
    schema = load_schema("bench_report_schema.json",
                         argv[2] if len(argv) == 3 else None)
    errors = validate(report, schema)
    if errors:
        for e in errors[:20]:
            print(f"FAIL {report_path}: {e}", file=sys.stderr)
        return 1
    print(f"OK {report_path}: valid {report.get('schema')} "
          f"({len(report.get('spans', []))} spans, "
          f"{len(report.get('metrics', {}).get('counters', {}))} counters)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
