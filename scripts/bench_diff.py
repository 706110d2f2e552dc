#!/usr/bin/env python3
"""Compare two infs-bench JSON files and fail on simulated regressions.

Usage: bench_diff.py BASELINE.json CURRENT.json [--max-regress PCT]
                     [--expect-backend NAME]

Gates, all on machine-independent quantities (DESIGN.md section 10):

- `sim_cycles` must not regress beyond --max-regress percent; simulated
  cycles are deterministic across machines, thread counts, and execution
  backends (the Executor timing model is backend-independent), so any
  change is a real model change, not noise. The gate is directional:
  only increases can fail it, a sim_cycles reduction of any size passes
  it (improvements are the point of optimizer PRs; the exact v6 gate
  below still fails them against a stale paper baseline).
- `checksum` must be byte-identical whenever both rows report a
  non-zero value AND both files' backends produce bit-certified sums.
  The fabric and functional backends are certified byte-identical
  (DESIGN.md section 12, tests/core/test_backend_diff.cc), so any pair
  drawn from {fabric, functional} gates; the timing backend reports
  functional-store fallback hashes that are not fabric bit patterns, so
  rows from a timing run are reported but never gate. A zero or absent
  checksum (the harness has no job for the scenario, or a --paper row)
  is reported as uncovered and does not gate.

Rows of an --ablate run carry an `ablation` array, one entry per
optimization-stack variant (base, cmdopt_off, ..., egraph_on); every
variant present in both files gates by the same two rules, reported as
workload/variant. Variants missing from either file are not compared.

Wall-clock fields are reported for context and never gate. Accepts two
schemas: infs-bench-v5 (the --quick/--full sweeps: top-level `backend`,
per-row checksums, `backend_sim_cycles`, `job_sim_cycles`, `cmd_stats`,
dispatch provenance) and infs-bench-v6 (the --paper artifact:
backend-free, checksum-free rows named workload@paradigm[/variant] whose
sim_cycles gate like any other). The --paper artifact is deterministic,
so when both files are v6 a third gate is exact: every row field but
`wall_ms` (energy, cycle categories, NoC classes and utilization,
ablation variants, ...) must equal the baseline's, improvements
included; a deliberate model change regenerates the baseline. --expect-backend fails fast when
CURRENT was produced by a different backend than the pipeline intended
(a mis-wired CI lane would otherwise silently skip the checksum gate).
Exit status: 0 within budget, 1 regression or checksum mismatch,
2 usage/schema error.
"""

import argparse
import json
import sys

KNOWN_SCHEMAS = ("infs-bench-v5", "infs-bench-v6")

# Backends whose checksums are certified identical to the bit-accurate
# fabric (see tests/core/test_backend_diff.cc).
BIT_CERTIFIED_BACKENDS = ("fabric", "functional")


def load(path):
    """Return (schema, backend_name, {workload_name: row}) for one file."""
    with open(path) as f:
        data = json.load(f)
    if data.get("schema") not in KNOWN_SCHEMAS:
        print(f"{path}: unexpected schema {data.get('schema')!r}",
              file=sys.stderr)
        sys.exit(2)
    return (data["schema"], data.get("backend"),
            {w["name"]: w for w in data["workloads"]})


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
    return [k for k in sorted(set(b) | set(c))
            if k != "wall_ms" and without_wall(b.get(k)) !=
            without_wall(c.get(k))]


def parse_checksum(row):
    """Checksum as an int; 0 when the row carries none."""
    raw = row.get("checksum", 0)
    return int(raw, 16) if isinstance(raw, str) else int(raw)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--max-regress", type=float, default=15.0,
                    help="max sim_cycles increase in percent (default 15)")
    ap.add_argument("--expect-backend", metavar="NAME",
                    help="fail (exit 2) unless CURRENT was produced by "
                         "this backend")
    args = ap.parse_args()

    base_schema, base_backend, base = load(args.baseline)
    cur_schema, cur_backend, cur = load(args.current)
    exact = base_schema == cur_schema == "infs-bench-v6"

    if args.expect_backend and cur_backend != args.expect_backend:
        print(f"{args.current}: backend {cur_backend!r}, expected "
              f"{args.expect_backend!r}", file=sys.stderr)
        sys.exit(2)

    gate_checksums = (base_backend in BIT_CERTIFIED_BACKENDS
                      and cur_backend in BIT_CERTIFIED_BACKENDS)
    if base_backend != cur_backend:
        print(f"comparing backends: {base_backend} (baseline) vs "
              f"{cur_backend} (current)"
              + ("" if gate_checksums
                 else " — checksums reported, not gated"))

    failed = []

    def gate(label, b, c):
        """Apply both gates to one row (or ablation variant) pair."""
        bc, cc = b["sim_cycles"], c["sim_cycles"]
        delta = 100.0 * (cc - bc) / bc if bc else (100.0 if cc else 0.0)
        marker = " "
        if delta > args.max_regress:
            failed.append(f"{label}: sim_cycles {bc} -> {cc} "
                          f"(+{delta:.1f}% > {args.max_regress:.0f}%)")
            marker = "!"

        bsum, csum = parse_checksum(b), parse_checksum(c)
        cks = "checksum ok"
        if bsum == 0 or csum == 0:
            cks = "checksum uncovered"
        elif not gate_checksums:
            cks = ("checksum match (ungated)" if bsum == csum
                   else "checksum differs (ungated: backends not "
                        "bit-comparable)")
        elif bsum != csum:
            failed.append(f"{label}: checksum {b['checksum']} -> "
                          f"{c['checksum']} (bit drift)")
            marker = "!"
            cks = "CHECKSUM MISMATCH"
        wall = (f"  wall {b['wall_ms']:8.2f} -> {c['wall_ms']:8.2f} ms"
                if "wall_ms" in b and "wall_ms" in c else "")
        print(f"{marker} {label:<18} sim_cycles {bc:>12} -> {cc:>12} "
              f"({delta:+6.1f}%){wall}  {cks}")

    for name, b in sorted(base.items()):
        c = cur.get(name)
        if c is None:
            failed.append(f"{name}: missing from {args.current}")
            continue
        gate(name, b, c)
        fields = differing_fields(b, c) if exact else []
        if fields:
            failed.append(f"{name}: changed {', '.join(fields)} "
                          f"(the paper artifact gates exactly)")
            print(f"! {name:<18} changed {', '.join(fields)}")
        variants = {v["variant"]: v for v in c.get("ablation", [])}
        for v in b.get("ablation", []):
            if v["variant"] in variants:
                gate(f"{name}/{v['variant']}", v, variants[v["variant"]])

    for name in sorted(set(cur) - set(base)):
        print(f"+ {name:<18} new workload "
              f"(sim_cycles {cur[name]['sim_cycles']})")

    if failed:
        print(f"\n{len(failed)} gate failure(s):", file=sys.stderr)
        for line in failed:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nbench_diff: all workloads within budget, checksums stable")
    return 0


if __name__ == "__main__":
    sys.exit(main())
