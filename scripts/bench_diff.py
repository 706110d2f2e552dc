#!/usr/bin/env python3
"""Compare two infs-bench JSON files and fail on simulated regressions.

Usage: bench_diff.py BASELINE.json CURRENT.json [--max-regress PCT]
                     [--expect-backend NAME] [--min-improve PCT]
                     [--min-improve-count N] [--min-improve-metric M]

Gates, all on machine-independent quantities (DESIGN.md section 10):

- `sim_cycles` must not regress beyond --max-regress percent; simulated
  cycles are deterministic across machines, thread counts, and execution
  backends (the Executor timing model is backend-independent), so any
  change is a real model change, not noise. The gate is directional:
  only increases can fail it, a sim_cycles reduction of any size always
  passes (improvements are the point of optimizer PRs).
- With --min-improve PCT, at least --min-improve-count workloads
  (default 1) must show a reduction of at least PCT percent versus
  baseline on --min-improve-metric (default sim_cycles). This turns the
  diff into a claim check for performance PRs: CI fails if an
  advertised optimization stops delivering, not just if something
  regresses. The metric may also be fabric_wall_ms — host wall clock of
  the bit-accurate fabric passes — for host-optimization PRs (SIMD
  kernels, DESIGN.md section 14); that comparison is only meaningful
  when both files come from the SAME machine in the SAME CI job (e.g.
  a portable-SIMD run vs a native run), which is how the bench-smoke
  lane uses it. Rows where either side lacks a positive value of the
  metric are skipped, never counted as improved.
- `checksum` must be byte-identical whenever both files report a
  non-zero value AND both files' backends produce bit-certified sums.
  The fabric and functional backends are certified byte-identical
  (DESIGN.md section 12, tests/core/test_backend_diff.cc), so any pair
  drawn from {fabric, functional} gates; the timing backend reports
  functional-store fallback hashes that are not fabric bit patterns, so
  rows from a timing run are reported but never gate. A zero on either
  side means that file's harness predates checksum coverage for the
  scenario; the pair is reported but does not gate.

Wall-clock fields are reported for context and never gate the
regression check (only the explicit opt-in improvement gate above may
read one). Accepts the infs-bench-v1 through -v6 schemas (v2 added
repeat/median timing and fabric breakdowns; v3 adds the top-level
`backend` and per-row `backend_sim_cycles`; v4 adds `job_sim_cycles`,
`cmd_stats`, and optional ablation rows; v5 adds `simd_isa`,
`numa_nodes`, and per-row schedule provenance, none of which gate
here; v6 is the `--paper` artifact: checksum-free rows named
workload@paradigm[/variant] whose sim_cycles gate like any other).
Files older than v3 are fabric-backend by definition. --expect-backend
fails fast when CURRENT was produced by a different backend than the
pipeline intended (a mis-wired CI lane would otherwise silently skip the
checksum gate). Exit status: 0 within
budget, 1 regression or checksum mismatch, 2 usage/schema error.
"""

import argparse
import json
import sys

KNOWN_SCHEMAS = ("infs-bench-v1", "infs-bench-v2", "infs-bench-v3",
                 "infs-bench-v4", "infs-bench-v5", "infs-bench-v6")

# Backends whose checksums are certified identical to the bit-accurate
# fabric (see tests/core/test_backend_diff.cc).
BIT_CERTIFIED_BACKENDS = ("fabric", "functional")


def load(path):
    """Return (backend_name, {workload_name: row}) for one bench file."""
    with open(path) as f:
        data = json.load(f)
    if data.get("schema") not in KNOWN_SCHEMAS:
        print(f"{path}: unexpected schema {data.get('schema')!r}",
              file=sys.stderr)
        sys.exit(2)
    backend = data.get("backend", "fabric")
    return backend, {w["name"]: w for w in data["workloads"]}


def parse_checksum(row):
    """Checksum as an int, or None when absent (early v1 files)."""
    raw = row.get("checksum")
    if raw is None:
        return None
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
    ap.add_argument("--min-improve", type=float, metavar="PCT",
                    help="require a sim_cycles reduction of at least PCT "
                         "percent on --min-improve-count workloads")
    ap.add_argument("--min-improve-count", type=int, default=1,
                    metavar="N",
                    help="workloads that must meet --min-improve "
                         "(default 1)")
    ap.add_argument("--min-improve-metric", metavar="M",
                    choices=("sim_cycles", "fabric_wall_ms"),
                    default="sim_cycles",
                    help="quantity the improvement gate reads (default "
                         "sim_cycles; fabric_wall_ms for same-machine "
                         "host-perf claims)")
    args = ap.parse_args()
    if args.min_improve is not None and args.min_improve_count < 1:
        print("--min-improve-count must be >= 1", file=sys.stderr)
        sys.exit(2)

    base_backend, base = load(args.baseline)
    cur_backend, cur = load(args.current)

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
    improved = []
    for name, b in sorted(base.items()):
        c = cur.get(name)
        if c is None:
            failed.append(f"{name}: missing from {args.current}")
            continue
        bc, cc = b["sim_cycles"], c["sim_cycles"]
        delta = 100.0 * (cc - bc) / bc if bc else (100.0 if cc else 0.0)
        if args.min_improve is not None:
            bm = b.get(args.min_improve_metric)
            cm = c.get(args.min_improve_metric)
            if bm and cm is not None and bm > 0:
                mdelta = 100.0 * (cm - bm) / bm
                if -mdelta >= args.min_improve:
                    improved.append(name)
        marker = " "
        if delta > args.max_regress:
            failed.append(f"{name}: sim_cycles {bc} -> {cc} "
                          f"(+{delta:.1f}% > {args.max_regress:.0f}%)")
            marker = "!"

        bsum, csum = parse_checksum(b), parse_checksum(c)
        cks = "checksum ok"
        if bsum is None or csum is None:
            cks = "checksum n/a"
        elif bsum == 0 or csum == 0:
            cks = "checksum uncovered"
        elif not gate_checksums:
            cks = ("checksum match (ungated)" if bsum == csum
                   else "checksum differs (ungated: backends not "
                        "bit-comparable)")
        elif bsum != csum:
            failed.append(f"{name}: checksum {b['checksum']} -> "
                          f"{c['checksum']} (bit drift)")
            marker = "!"
            cks = "CHECKSUM MISMATCH"
        print(f"{marker} {name:<18} sim_cycles {bc:>12} -> {cc:>12} "
              f"({delta:+6.1f}%)  wall {b['wall_ms']:8.2f} -> "
              f"{c['wall_ms']:8.2f} ms  {cks}")

    for name in sorted(set(cur) - set(base)):
        print(f"+ {name:<18} new workload "
              f"(sim_cycles {cur[name]['sim_cycles']})")

    if args.min_improve is not None:
        if len(improved) < args.min_improve_count:
            failed.append(
                f"improvement gate: {len(improved)} workload(s) improved "
                f"{args.min_improve_metric} >= {args.min_improve:g}% "
                f"({', '.join(improved) if improved else 'none'}), "
                f"need {args.min_improve_count}")
        else:
            print(f"improvement gate: {len(improved)} workload(s) "
                  f">= {args.min_improve:g}% faster on "
                  f"{args.min_improve_metric} ({', '.join(improved)})")

    if failed:
        print(f"\n{len(failed)} gate failure(s):", file=sys.stderr)
        for line in failed:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nbench_diff: all workloads within budget, checksums stable")
    return 0


if __name__ == "__main__":
    sys.exit(main())
