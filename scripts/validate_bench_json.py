#!/usr/bin/env python3
"""Validate BENCH_*.json run artifacts against scripts/bench_schema.json.

Usage: validate_bench_json.py [--schema SCHEMA] FILE [FILE...]
           [--baseline BASELINE --regress METRIC[,METRIC...] [--slack F]]

Implements the small JSON-Schema subset the schema file uses (type,
required, properties, additionalProperties, items, minimum, $ref into
#/definitions) so tier-1 needs nothing beyond the python3 stdlib.
Exits non-zero and prints one line per violation if any file fails.
A key repeated inside one JSON object is a violation too (json.load
would otherwise keep the last value and hide the first).

With --baseline, each validated file whose "name" matches the baseline
artifact is additionally compared on the listed lower-is-better metrics:
a current value above baseline * slack prints a WARN line. The compare
is warn-only -- machines differ -- so it never affects the exit code.
"""

import argparse
import json
import sys
from pathlib import Path

TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # bool is an int subclass in Python; exclude it from numeric types.
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


class DuplicateKeyError(ValueError):
    pass


def reject_duplicate_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DuplicateKeyError(f"duplicate key '{key}'")
        obj[key] = value
    return obj


def load_json(path):
    with open(path) as f:
        return json.load(f, object_pairs_hook=reject_duplicate_keys)


def resolve_ref(schema, root):
    ref = schema.get("$ref")
    if ref is None:
        return schema
    if not ref.startswith("#/"):
        raise ValueError(f"unsupported $ref: {ref}")
    node = root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def validate(value, schema, root, path, errors):
    schema = resolve_ref(schema, root)

    stype = schema.get("type")
    if stype is not None:
        allowed = stype if isinstance(stype, list) else [stype]
        if not any(TYPE_CHECKS[t](value) for t in allowed):
            errors.append(
                f"{path}: expected {'/'.join(allowed)}, "
                f"got {type(value).__name__}")
            return  # structural checks below would just cascade

    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        if value < schema["minimum"]:
            errors.append(f"{path}: {value} < minimum {schema['minimum']}")

    if isinstance(value, dict):
        for req in schema.get("required", []):
            if req not in value:
                errors.append(f"{path}: missing required key '{req}'")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, sub in value.items():
            if key in props:
                validate(sub, props[key], root, f"{path}.{key}", errors)
            elif isinstance(extra, dict):
                validate(sub, extra, root, f"{path}.{key}", errors)

    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], root, f"{path}[{i}]", errors)


def compare_baseline(name, doc, baseline, metrics, slack):
    """Warn-only perf-regression check against a checked-in artifact."""
    if doc.get("name") != baseline.get("name"):
        return
    cur = doc.get("metrics", {})
    base = baseline.get("metrics", {})
    for metric in metrics:
        if metric not in cur or metric not in base:
            print(f"WARN {name}: metric '{metric}' missing from "
                  f"{'current' if metric not in cur else 'baseline'} "
                  "artifact; baseline needs refreshing")
            continue
        limit = base[metric] * slack
        if cur[metric] > limit:
            print(f"WARN {name}: {metric} regressed: {cur[metric]:.6g} > "
                  f"baseline {base[metric]:.6g} * slack {slack:g} "
                  "(warn-only)")
        else:
            print(f"OK   {name}: {metric} {cur[metric]:.6g} within "
                  f"{slack:g}x of baseline {base[metric]:.6g}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--schema",
                    default=Path(__file__).with_name("bench_schema.json"))
    ap.add_argument("--baseline",
                    help="checked-in BENCH_*.json to compare against")
    ap.add_argument("--regress", default="",
                    help="comma-separated lower-is-better metrics to check")
    ap.add_argument("--slack", type=float, default=1.5,
                    help="warn when current > baseline * slack")
    ap.add_argument("files", nargs="+")
    args = ap.parse_args()

    schema = load_json(args.schema)

    baseline = None
    if args.baseline:
        try:
            baseline = load_json(args.baseline)
        except DuplicateKeyError as e:
            print(f"FAIL {args.baseline}: {e}")
            return 1
    regress_metrics = [m for m in args.regress.split(",") if m]

    failed = False
    for name in args.files:
        try:
            doc = load_json(name)
        except (OSError, json.JSONDecodeError, DuplicateKeyError) as e:
            print(f"FAIL {name}: {e}")
            failed = True
            continue
        errors = []
        validate(doc, schema, schema, "$", errors)
        if errors:
            failed = True
            print(f"FAIL {name}:")
            for e in errors:
                print(f"  {e}")
        else:
            print(f"OK   {name}")
            if baseline is not None:
                compare_baseline(name, doc, baseline, regress_metrics,
                                 args.slack)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
