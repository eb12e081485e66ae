#!/usr/bin/env python3
"""Check the BENCH_*.json artifacts the bench sweeps leave in one directory.

Every BENCH_*.json there must parse and carry the bench writer's schema
(`bench`, `schema` 1, `smoke` matching the file name, `params`, `tables`),
and every row of a table must carry that table's columns. Each file named
after DIR must be there.

  check_bench_results.py DIR [BENCH_<name>.json | BENCH_<name>_smoke.json ...]
"""
import argparse
import glob
import json
import os
import sys


def problems(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [f"does not parse: {e}"]
    if not isinstance(doc, dict):
        return ["is not a JSON object"]
    missing = [k for k in ("bench", "schema", "smoke", "params", "tables") if k not in doc]
    if missing:
        return [f"lacks {', '.join(missing)}"]
    found = []
    if doc["schema"] != 1:
        found.append(f"schema {doc['schema']!r}, not 1")
    if doc["smoke"] is not path.endswith("_smoke.json"):
        found.append(f"smoke {doc['smoke']!r} does not match the file name")
    if not isinstance(doc["params"], dict) or not isinstance(doc["tables"], dict):
        return found + ["params or tables is not an object"]
    for name, rows in doc["tables"].items():
        if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
            found.append(f"table {name} is not a list of rows")
            continue
        columns = set().union(*(row.keys() for row in rows))
        for i, row in enumerate(rows):
            if columns - row.keys():
                found.append(f"table {name} row {i} lacks {sorted(columns - row.keys())}")
    return found


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir")
    ap.add_argument("expected", nargs="*", help="artifact file names that must be there")
    args = ap.parse_args()

    failures = [f"{n}: missing" for n in args.expected
                if not os.path.exists(os.path.join(args.dir, n))]
    paths = sorted(glob.glob(os.path.join(args.dir, "BENCH_*.json")))
    for path in paths:
        failures += [f"{os.path.basename(path)}: {p}" for p in problems(path)]
    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        print(f"{len(paths)} bench artifacts in {args.dir} carry schema 1")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
