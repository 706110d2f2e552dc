#!/usr/bin/env python3
"""Compare two infs-bench JSON files and fail on any simulated change.

Usage: bench_diff.py BASELINE.json CURRENT.json [--expect-backend NAME]

Both files must be `infs-bench-v6` artifacts (the --quick/--full sweeps
and the --paper artifact write the same rows, named
workload@paradigm[/variant]). Every field except `wall_ms` is a
deterministic function of the code and the workload, identical across
machines and thread counts (DESIGN.md section 10), so the gate is exact:

- every field of every baseline row, at any depth, must equal the
  current row's, `wall_ms` excepted wherever it appears (sim_cycles,
  checksums, cycle categories, NoC classes, energy, cmd_stats, ...).
  Improvements fail too; a deliberate model change regenerates the
  baseline;
- a baseline row missing from CURRENT fails. Rows only CURRENT has are
  reported and pass.

Both files must name the same `backend` (sweeps name the backend of
their job pass; paper artifacts name none), because checksums from
different backends are not the same quantity. --expect-backend also
fails when CURRENT was produced by a different backend than the
pipeline intended. The retired infs-bench-v5 schema is rejected.

Exit status: 0 identical, 1 a field changed or a row is missing,
2 usage/schema/backend error.
"""

import argparse
import json
import sys

SCHEMA = "infs-bench-v6"


def load(path):
    """Return (backend_name, {row_name: row}) for one file."""
    with open(path) as f:
        data = json.load(f)
    schema = data.get("schema")
    if schema == "infs-bench-v5":
        print(f"{path}: retired schema {schema!r}; regenerate it with "
              f"this infs-bench", file=sys.stderr)
        sys.exit(2)
    if schema != SCHEMA:
        print(f"{path}: unexpected schema {schema!r}", file=sys.stderr)
        sys.exit(2)
    return data.get("backend"), {w["name"]: w for w in data["workloads"]}


def without_wall(value):
    """@p value with every `wall_ms` key dropped, at any depth."""
    if isinstance(value, dict):
        return {k: without_wall(v) for k, v in value.items()
                if k != "wall_ms"}
    if isinstance(value, list):
        return [without_wall(v) for v in value]
    return value


def differing_fields(b, c):
    """Top-level fields of two rows that differ, `wall_ms` excepted."""
    b, c = without_wall(b), without_wall(c)
    return [k for k in sorted(set(b) | set(c)) if b.get(k) != c.get(k)]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--expect-backend", metavar="NAME",
                    help="fail (exit 2) unless CURRENT was produced by "
                         "this backend")
    args = ap.parse_args()

    base_backend, base = load(args.baseline)
    cur_backend, cur = load(args.current)

    if args.expect_backend and cur_backend != args.expect_backend:
        print(f"{args.current}: backend {cur_backend!r}, expected "
              f"{args.expect_backend!r}", file=sys.stderr)
        sys.exit(2)
    if base_backend != cur_backend:
        print(f"backend {base_backend!r} (baseline) != {cur_backend!r} "
              f"(current): the files are not comparable", file=sys.stderr)
        sys.exit(2)

    failed = []
    for name, b in sorted(base.items()):
        c = cur.get(name)
        if c is None:
            failed.append(f"{name}: missing from {args.current}")
            print(f"! {name:<36} missing")
            continue
        fields = differing_fields(b, c)
        if fields:
            failed.append(f"{name}: changed {', '.join(fields)}")
            print(f"! {name:<36} changed {', '.join(fields)}")
        else:
            print(f"  {name:<36} sim_cycles {c['sim_cycles']:>12}  same")

    for name in sorted(set(cur) - set(base)):
        print(f"+ {name:<36} new row (sim_cycles {cur[name]['sim_cycles']})")

    if failed:
        print(f"\n{len(failed)} gate failure(s):", file=sys.stderr)
        for line in failed:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nbench_diff: all {len(base)} baseline rows identical "
          f"but for wall_ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
