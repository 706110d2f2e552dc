#!/usr/bin/env python3
"""Paper-scale benchmark of the Infinity Stream simulator.

Builds perfbench (and the simulator libraries it links) from this checkout
in Release mode, runs one workload, and prints a report whose last line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 10 \
        --trace 0 [--record results.jsonl]

Workloads (one process, one closed-loop client, host pool = nproc):
  paper-mix   Table 3 variants at paper sizes (minus gauss_elim, conv3d)
              plus PointNet++ SSG/MSG at 4096 points, under Base, Near-L3,
              In-L3, Inf-S and Inf-S-noJIT: the timing walk dominates.
  gauss-jit   gauss_elim(2048) under Inf-S: 2047 cold lowerings, the JIT
              dominates.
  fabric-job  every registry full() scenario with a lowerable primary-layout
              job, run on the fabric and the functional backends.

Host times (host_cpu_ms_*, setup_s) are process CPU time summed over the
host pool's threads, which leaves out time the threads spend descheduled
on a shared machine; the report prints wall times beside them.

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 reports
the per-layer metrics from separate traced passes and writes their spans as
Chrome trace-event JSON into the build directory. The build directory is
$CARGO_TARGET_DIR, else .bench_build, relative to the repository root.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchstats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-mix", "gauss-jit", "fabric-job")
PARADIGMS = ("Base", "Near-L3", "In-L3", "Inf-S", "Inf-S-noJIT")
CATEGORIES = ("dram", "jit", "move", "compute", "final_reduce", "mix",
              "near", "core", "sync")
TRAFFIC = ("control", "data", "offload", "inter_tile")
CMD_KINDS = ("intra_shift", "inter_shift", "compute", "bc", "bc_imm", "sync")
# Layer spans the traced passes record (perfbench/src/driver.cc, main.cc).
SPANS = ("tdfg.build", "jit.tile", "jit.lower", "uarch.replay",
         "uarch.walk", "uarch.prepare", "stream.near", "core.exec",
         "backend.fabric", "backend.functional")
TIME_LIMIT_S = 170

# Paper values as EXPERIMENTS.md quotes them (Fig 11 and Fig 19).
PAPER_RATIOS = (
    ("Near-L3 over Base", 2.0),
    ("In-L3 over Near-L3", 2.1),
    ("Inf-S over Near-L3", 2.6),
    ("Inf-S-noJIT over Inf-S", 1.19),
    ("PointNet++ SSG Inf-S over Base", 1.69),
    ("PointNet++ MSG Inf-S over Base", 1.93),
)
# Fig 11 benchmarks in paper-mix; dataflow variants take the faster one.
FIG11 = {
    "stencil1d": ("stencil1d",), "stencil2d": ("stencil2d",),
    "stencil3d": ("stencil3d",), "dwt2d": ("dwt2d",),
    "conv2d": ("conv2d",), "mm": ("mm/in", "mm/out"),
    "kmeans": ("kmeans/in", "kmeans/out"),
    "gather_mlp": ("gather_mlp/in", "gather_mlp/out"),
}


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir, deadline):
    """Configure (once) and build perfbench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no simulator sources at %s/src" % ROOT, 2)
    cache = build_dir / "CMakeCache.txt"
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "perfbench"


def provenance_extra():
    """Git commit (when this is a git checkout) and a source digest."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return {"git_commit": commit, "source_sha256": h.hexdigest()[:16]}


def sim_points(raw):
    """(cycles, energy uJ, NoC MB) per Inf-S variant or per fabric job."""
    if raw["workload"] == "fabric-job":
        rows = raw["jobs"]
        noc = [r["noc_hop_bytes"] for r in rows]
    else:
        rows = [r for r in raw["runs"] if r["paradigm"] == "Inf-S"]
        noc = [sum(r["noc_hop_bytes"].values()) for r in rows]
    return [(r["cycles"], r["energy_j"] * 1e6, n / 1e6)
            for r, n in zip(rows, noc)]


def end_to_end(raw):
    """Host times are process CPU time (every thread): on a shared host,
    wall time mostly measures how long other tenants keep the benchmark's
    threads off the CPUs. Wall times are printed beside them."""
    passes = raw["pass_cpu_ms"]
    tail = benchstats.tail_percentile(passes)
    if tail is None:
        fail("only %d timed passes; a tail needs more than %d (raise "
             "--seconds)" % (len(passes), benchstats.TAIL_BEYOND))
    points = sim_points(raw)
    return {
        "host_cpu_ms_p50": (benchstats.median(passes), "ms"),
        "host_cpu_ms_tail": (tail[1], "ms"),
        "setup_s": (benchstats.median(raw["setup_cpu_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "sim_cycles": (benchstats.geomean([p[0] for p in points]),
                       "cycles"),
        "sim_energy_uj": (benchstats.geomean([p[1] for p in points]), "uJ"),
        "sim_noc_hop_mb": (benchstats.geomean([p[2] for p in points]),
                           "MB"),
    }, tail


def per_layer(raw, layers):
    """Per-layer metrics: host ms from the traced passes' spans (median
    over passes), counts from the traced pass, the rest from ExecStats."""
    m = {}
    for span in SPANS:
        m[span + "_ms"] = (benchstats.median(
            [p.get(span, (0.0, 0.0))[0] for p in layers]), "ms")
    m["core.self_ms"] = (benchstats.median(
        [p.get("core.exec", (0.0, 0.0))[1] for p in layers]), "ms")
    counts = raw["traced"]["counts"]
    first = counts[0]

    def count(name):
        return float(first.get(name, 0.0))

    for name in ("tdfg.builds", "jit.lowerings", "jit.memo_hits",
                 "jit.candidates", "jit.commands", "jit.cmdopt_rewrites",
                 "uarch.walk_cmds", "stream.near_runs"):
        m[name] = (count(name), "count")
    lookups = count("jit.memo_hits") + count("jit.lowerings")
    m["jit.memo_hit_ratio"] = (
        count("jit.memo_hits") / lookups if lookups else 0.0, "ratio")
    for kind in CMD_KINDS:
        key = "backend.%s." % kind
        m[key + "count"] = (count(key + "count"), "count")
        # FabricStats times each kind summed over concurrent lanes.
        m[key + "ms"] = (benchstats.median(
            [float(c.get(key + "ms", 0.0)) for c in counts]), "cpu-ms")
    m["bitserial.mask_cache_hit_ratio"] = (
        count("bitserial.mask_cache_hit_ratio"), "ratio")
    m["bitserial.scratch_allocs"] = (count("bitserial.scratch_allocs"),
                                     "count")

    runs = raw.get("runs", [])
    infs = [r for r in runs if r["paradigm"] == "Inf-S"]
    for cat in CATEGORIES:
        m["sim.%s_cycles" % cat] = (
            float(sum(r["categories"][cat] for r in infs)), "cycles")
    for par in PARADIGMS:
        if par == "Inf-S":
            continue
        cyc = [r["cycles"] for r in runs if r["paradigm"] == par]
        m["sim.cycles." + par] = (
            benchstats.geomean(cyc) if cyc else 0.0, "cycles")
    total = sum(r["total_ops"] for r in infs)
    m["sim.in_mem_op_fraction"] = (
        sum(r["in_mem_ops"] for r in infs) / total if total else 0.0,
        "ratio")
    for cls in TRAFFIC:
        m["noc.hop_mb." + cls] = (
            sum(r["noc_hop_bytes"][cls] for r in infs) / 1e6, "MB")
    m["mem.dram_mb"] = (sum(r["dram_bytes"] for r in infs) / 1e6, "MB")
    m["trace.overhead_ms"] = (
        benchstats.median(raw["traced"]["pass_cpu_ms"])
        - benchstats.median(raw["pass_cpu_ms"]), "ms")
    m["failed_share"] = (raw["failed"] / raw["attempted"], "ratio")
    return m


def paper_ratios(raw):
    """Fig 11/19 ratios of paper-mix next to the paper's values."""
    cyc = {(r["variant"], r["paradigm"]): r["cycles"] for r in raw["runs"]}

    def best(variants, par):
        return min(cyc[(v, par)] for v in variants)

    def gm(num, den):
        return benchstats.geomean([best(vs, num) / best(vs, den)
                                   for vs in FIG11.values()])

    measured = [
        gm("Base", "Near-L3"), gm("Near-L3", "In-L3"),
        gm("Near-L3", "Inf-S"), gm("Inf-S", "Inf-S-noJIT"),
        cyc[("pointnet_ssg", "Base")] / cyc[("pointnet_ssg", "Inf-S")],
        cyc[("pointnet_msg", "Base")] / cyc[("pointnet_msg", "Inf-S")],
    ]
    return [(name, paper, got, got / paper - 1)
            for (name, paper), got in zip(PAPER_RATIOS, measured)]


def report(raw, prov, e2e, tail, layers):
    w = raw["workload"]
    print("== perfbench %s  seed %d" % (w, raw["seed"]))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("-- end to end (tracing off)")
    for name, (value, unit) in e2e.items():
        print("  %-16s %16.6g %s" % (name, value, unit))
    print("  host_cpu_ms_tail is p%.1f of %d timed passes (the highest "
          "percentile with %d passes beyond it)"
          % (tail[0], tail[2], benchstats.TAIL_BEYOND))
    print("  host times are process CPU time over %d threads; wall time "
          "of a pass: p50 %.1f ms, p%.1f %.1f ms"
          % (raw["provenance"]["host_threads"],
             benchstats.median(raw["pass_ms"]), tail[0],
             benchstats.tail_percentile(raw["pass_ms"])[1]))
    print("  setup_s is the median CPU time of %d set-ups (the first from "
          "process start): %s; wall: %s" % (
              len(raw["setup_cpu_s"]),
              ", ".join("%.3f" % s for s in raw["setup_cpu_s"]),
              ", ".join("%.3f" % s for s in raw["setup_wall_s"])))
    print("-- correctness (%d operations, %d failed)"
          % (raw["attempted"], raw["failed"]))
    for c in raw["checks"]:
        print("  %-26s %s  %s" % (c["name"],
                                  "ok" if c["failures"] == 0
                                  else "FAILED x%d" % c["failures"],
                                  c["detail"]))
    if w != "fabric-job":
        frac = [(r["in_mem_ops"] / r["total_ops"], r["variant"],
                 r["paradigm"]) for r in raw["runs"] if r["total_ops"]]
        top = max(frac)
        print("  max inMemOps/totalOps = %.6f (%s under %s)%s"
              % (top[0], top[1], top[2],
                 "  VIOLATES <= 1" if top[0] > 1 else ""))
    print("-- simulated ratios")
    if w == "paper-mix":
        print("  %-32s %8s %9s %9s" % ("ratio", "paper", "measured",
                                       "rel.err"))
        for name, paper, got, err in paper_ratios(raw):
            print("  %-32s %7.2fx %8.2fx %+8.1f%%"
                  % (name, paper, got, 100 * err))
        print("  (Fig 11 geomean over the 8 paper benchmarks in this mix, "
              "best dataflow per paradigm; gauss_elim and conv3d are "
              "not in it)")
    print("  Every other simulated number has no hardware reference: the "
          "model is unvalidated.")
    if layers:
        print("-- per layer (median of %d traced passes; self = span minus "
              "child spans)" % len(layers))
        names = sorted({n for p in layers for n in p},
                       key=lambda n: -benchstats.median(
                           [p.get(n, (0, 0))[1] for p in layers]))
        pass_ms = benchstats.median([p["pass"][0] for p in layers])
        print("  %-20s %12s %12s %7s" % ("layer", "incl ms", "self ms",
                                         "self %"))
        for n in names:
            incl = benchstats.median([p.get(n, (0, 0))[0] for p in layers])
            self_ = benchstats.median([p.get(n, (0, 0))[1] for p in layers])
            print("  %-20s %12.3f %12.3f %6.1f%%"
                  % (n, incl, self_, 100 * self_ / pass_ms))
        print("  ('pass' self time is the harness and system construction "
              "outside every layer call)")


def check_contract(metrics, section):
    """The printed metrics must be exactly the ones BENCHMARK.json lists."""
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        return
    with open(spec_file) as f:
        spec = {m["name"]: m["unit"] for m in json.load(f)[section]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != spec:
        fail("metrics disagree with BENCHMARK.json %s: %s" % (
            section, sorted(set(got.items()) ^ set(spec.items()))))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the full result to this JSONL "
                    "file (input of perfbench/compare.py)")
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]", 2)

    started = time.monotonic()
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir, started + 870)

    run_started = time.monotonic()
    trace_file = build_dir / "traces" / (
        "%s-seed%d.json" % (args.workload, args.seed))
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_file)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=TIME_LIMIT_S - 5)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    if r.returncode not in (0, 1) or not r.stdout.strip():
        fail("benchmark exited with code %d" % r.returncode)
    raw = json.loads(r.stdout)

    prov = dict(raw["provenance"], seed=args.seed, **provenance_extra())
    e2e, tail = end_to_end(raw)
    layers, layer_metrics = [], {}
    if args.trace:
        with open(trace_file) as f:
            layers = benchstats.layer_times(json.load(f)["traceEvents"])
        layer_metrics = per_layer(raw, layers)
    report(raw, prov, e2e, tail, layers)

    correct = r.returncode == 0 and raw["failed"] == 0
    chosen = layer_metrics if args.trace else e2e
    check_contract(chosen, "per_layer" if args.trace else "end_to_end")
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in chosen.items()},
    }
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(dict(result, workload=args.workload,
                                    trace=args.trace, provenance=prov,
                                    host_cpu_ms_tail_percentile=tail[0],
                                    timed_passes=tail[2],
                                    host_wall_ms_p50=benchstats.median(
                                        raw["pass_ms"]))) + "\n")
    print("run took %.1f s after the build" % (time.monotonic()
                                              - run_started))
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
