#!/usr/bin/env python3
"""Render the paper's figures and tables from an `infs-bench --paper` run.

Usage: figures.py ARTIFACT.json [--check DOC.md | --write DOC.md]

ARTIFACT.json is an `infs-bench --paper` artifact (BENCH_PAPER.json is
the committed one). Each view (Eq. 1, Figs 2 and 11-19, the section 8 JIT
and area numbers, the memoization and tiling ablations) reads that file
alone and picks its workloads from the rows present. With no option the
views print to stdout; --write rewrites DOC.md's generated blocks, each
between `<!-- figures.py:NAME -->` and `<!-- /figures.py:NAME -->`;
--check exits 1 when one differs. Every mode also exits 1 when an
invariant the model guarantees fails: Near-L3 <= Base, Inf-S <= In-L3 and
Inf-S-noJIT <= Inf-S in cycles per workload, in_mem_ops <= total_ops on
every row, and the Fig 16 runtime tile within 2 % of the best forced
tile. Exit 2 on a usage or schema error. Standard library only.
"""

import argparse
import json
import math
import re
import sys

FIVE = ("Base", "Near-L3", "In-L3", "Inf-S", "Inf-S-noJIT")
DEGRADED = "†"
FOOTNOTE = (f"{DEGRADED} the in-memory region degraded to near memory "
            "(`regions_degraded > 0`).")
MAX_TILE_GAP = 0.02


class Artifact:
    def __init__(self, data):
        self.machine = data["machine"]
        self.rows = data["workloads"]
        for r in self.rows:
            r["workload"], _, rest = r["name"].partition("@")
            r["paradigm"], _, r["variant"] = rest.partition("/")
        self.by_key = {(r["workload"], r["paradigm"], r["variant"]): r
                       for r in self.rows}

    def get(self, workload, paradigm, variant=""):
        return self.by_key[(workload, paradigm, variant)]

    def workloads(self, paradigm):
        """Workloads with an as-authored @p paradigm row, in artifact
        order."""
        return list(dict.fromkeys(
            r["workload"] for r in self.rows
            if r["paradigm"] == paradigm and not r["variant"]))

    def five_paradigm(self):
        """Workloads run under all five paradigms (Table 3 + PointNet)."""
        return self.workloads("Inf-S-noJIT")

    def variants(self):
        """The 13 Table 3 implementation variants."""
        return [w for w in self.five_paradigm()
                if not w.startswith("pointnet")]

    def groups(self):
        """Table 3 benchmarks: name -> its variants (inner before outer
        dataflow for mm/kmeans/gather_mlp, else the one variant)."""
        out = {}
        for w in self.variants():
            out.setdefault(re.sub(r"_(inner|outer)$", "", w), []).append(w)
        return {g: sorted(vs, key=lambda w: w.endswith("_outer"))
                for g, vs in out.items()}

    def canonical(self):
        """(label, variant) per benchmark: the outer-product form where
        there is a choice, as Figs 12 and 18 plot it."""
        return [(g, next((v for v in vs if v.endswith("_outer")), vs[0]))
                for g, vs in self.groups().items()]

    def tiles(self, dims):
        """workload -> [(tile, row)] of its forced @p dims-D tiles, in
        artifact order."""
        out = {}
        for r in self.rows:
            if r["variant"].startswith("tile="):
                tile = [int(t) for t in r["variant"][5:].split("x")]
                if len(tile) == dims:
                    out.setdefault(r["workload"], []).append((tile, r))
        return out


def geomean(vals):
    return math.exp(sum(map(math.log, vals)) / len(vals)) if vals else 0.0


def mark(text, row):
    return text + DEGRADED if row["regions_degraded"] > 0 else text


def table(header, rows):
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(str(c) for c in r) + " |" for r in rows]
    return "\n".join(lines)


def with_footnote(text, marked):
    return text + ("\n\n" + FOOTNOTE if marked else "")


# ---- views ---------------------------------------------------------------

def view_eq1(a):
    m = a.machine
    peak = m["in_mem_peak_ops_per_cycle"]
    base = m["base_peak_ops_per_cycle"]
    achieved = m["probe_in_mem_ops"] / m["probe_cycles"]
    return f"Machine: `{m['summary']}`\n\n" + table(
        ["quantity", "paper", "measured"],
        [["int32 adds/cycle in-memory", "131072", f"{peak:.0f}"],
         ["baseline ops/cycle", "1024", f"{base:.0f}"],
         ["peak speedup", "128×", f"{peak / base:.0f}×"],
         ["fp32 add probe, ops/cycle (share of fp32 peak)", "—",
          f"{achieved:.0f} "
          f"({100.0 * achieved / m['fp32_peak_ops_per_cycle']:.1f}%)"]])


def view_fig2(a):
    cols = ("Base-1T", "Base", "Near-L3", "In-L3")
    rows = []
    for w in a.workloads("Base-1T"):
        base1 = a.get(w, "Base-1T")["sim_cycles"]
        rows.append([w] + [f"{base1 / a.get(w, p)['sim_cycles']:.2f}"
                           for p in cols])
        if w.startswith("vec_add/"):
            last = w
    head = a.get(last, "Near-L3")["sim_cycles"] / a.get(
        last, "In-L3")["sim_cycles"]
    return (table(["speedup over Base-1T", "Base-1T", "Base-64T",
                   "Near-L3", "In-L3"], rows)
            + "\n\n" + table(["headline", "paper", "measured"],
                             [[f"{last} In-L3 over Near-L3", "21×",
                               f"{head:.1f}×"]]))


def view_fig11(a):
    rows, by_col, marked = [], [[] for _ in FIVE], False
    for g, vs in a.groups().items():
        best = []
        for p in FIVE:
            # Best dataflow per configuration (§7); ties keep inner.
            best.append(min((a.get(v, p) for v in vs),
                            key=lambda r: r["sim_cycles"]))
        base = best[0]["sim_cycles"]
        cells = [g]
        for c, r in enumerate(best):
            sp = base / r["sim_cycles"]
            by_col[c].append(sp)
            cells.append(mark(f"{sp:.2f}", r))
            marked |= r["regions_degraded"] > 0
        rows.append(cells)
    gm = [geomean(v) for v in by_col]
    rows.append(["**geomean**"] + [f"**{v:.2f}**" for v in gm])
    near, inl3, infs, nojit = gm[1], gm[2], gm[3], gm[4]
    ratios = table(["ratio", "paper", "measured"], [
        ["Near-L3 over Base", "2.0×", f"{near:.2f}×"],
        ["In-L3 over Near-L3", "2.1×", f"{inl3 / near:.1f}×"],
        ["Inf-S over Near-L3", "2.6×", f"{infs / near:.1f}×"],
        ["Inf-S-noJIT over Inf-S", "+19%",
         f"+{100.0 * (nojit / infs - 1.0):.0f}%"]])
    return with_footnote(table(["benchmark"] + list(FIVE), rows)
                         + "\n\n" + ratios, marked)


def view_fig12(a):
    rows, sums = [], {"Near-L3": 0.0, "Inf-S": 0.0}
    canon = a.canonical()
    for _, w in canon:
        base_total = 1.0
        for p in ("Base", "Near-L3", "Inf-S"):
            r = a.get(w, p)
            hop = r["noc_hop_bytes"]
            control, data = hop["control"], hop["data"]
            offload = hop["offload"] + hop["inter_tile"]
            total = control + data + offload
            if p == "Base":
                base_total = total if total > 0 else 1.0
            else:
                sums[p] += total / base_total
            rows.append([w if p == "Base" else "", p]
                        + [f"{v / base_total:.3f}"
                           for v in (control, data, offload, total)]
                        + [f"{100.0 * r['noc_utilization']:.1f}%"])
    n = len(canon)
    return (table(["benchmark", "config", "control", "data", "offload",
                   "total", "util"], rows)
            + "\n\n" + table(["avg traffic vs Base", "paper", "measured"], [
                ["Near-L3", "0.71", f"{sums['Near-L3'] / n:.2f}"],
                ["Inf-S", "0.10", f"{sums['Inf-S'] / n:.2f}"]]))


def view_fig13(a):
    rows = []
    for w in a.variants():
        r = a.get(w, "Inf-S")
        hop = r["noc_hop_bytes"]
        inter_noc = hop["inter_tile"]
        inter_ht = max(r["inter_tile_bytes"] - r["inter_tile_noc_bytes"],
                       0.0)
        parts = [r["intra_tile_bytes"], inter_ht, inter_noc,
                 hop["offload"], hop["data"], hop["control"]]
        total = sum(parts) or 1.0
        rows.append([w] + [f"{v / total:.3f}" for v in parts])
    return table(["benchmark", "intra", "inter-HT", "inter-NoC", "offload",
                  "data", "control"], rows)


def view_fig14(a):
    rows, marked = [], False
    sums = {"dram": 0.0, "jit": 0.0, "move": 0.0, "compute": 0.0}
    variants = a.variants()
    for w in variants:
        r = a.get(w, "Inf-S")
        c = r["cycles"]
        total = float(r["sim_cycles"]) if r["sim_cycles"] > 0 else 1.0
        # Move/compute/sync are per-command occupancy sums; banks
        # overlap, so scale them to fill the in-memory share.
        span = total
        for k in ("dram", "jit", "final_reduce", "mix", "near", "core"):
            span -= c[k]
        span = max(0.0, span)
        occupancy = float(c["move"]) + c["compute"] + c["sync"]
        scale = span / occupancy if occupancy > 0 else 0.0
        frac = {k: c[k] / total for k in c}
        frac["move"] = c["move"] * scale / total
        frac["compute"] = c["compute"] * scale / total
        for k in sums:
            sums[k] += frac[k]
        ops = r["total_ops"]
        inmem = r["in_mem_ops"] / ops if ops else 0.0
        rows.append([mark(w, r)]
                    + [f"{frac[k]:.3f}" for k in
                       ("dram", "jit", "move", "compute", "final_reduce",
                        "mix", "near", "core")]
                    + [f"{100.0 * inmem:.1f}%"])
        marked |= r["regions_degraded"] > 0
    n = len(variants)
    avg = table(["component (avg)", "paper", "measured"], [
        ["DRAM (fetch + transpose)", "26%",
         f"{100.0 * sums['dram'] / n:.0f}%"],
        ["bit-serial compute", "32%", f"{100.0 * sums['compute'] / n:.0f}%"],
        ["tensor move", "19%", f"{100.0 * sums['move'] / n:.0f}%"],
        ["JIT lowering", "11%", f"{100.0 * sums['jit'] / n:.0f}%"]])
    return with_footnote(
        table(["benchmark", "dram", "jit", "move", "compute", "finred",
               "mix", "near", "core", "inmem%"], rows) + "\n\n" + avg,
        marked)


def view_fig15(a):
    rows, outer = [], []
    for g, vs in a.groups().items():
        if len(vs) != 2:
            continue
        inner = next(v for v in vs if v.endswith("_inner"))
        out = next(v for v in vs if v.endswith("_outer"))
        base_in = a.get(inner, "Base")["sim_cycles"]
        row = []
        for p in ("Base", "Near-L3", "Inf-S"):
            row.append(base_in / a.get(inner, p)["sim_cycles"])
            row.append(base_in / a.get(out, p)["sim_cycles"])
        outer.append(row[-1])
        rows.append([g] + [f"{v:.2f}" for v in row])
    return (table(["speedup over Base-inner", "Base-In", "Base-Out",
                   "Near-In", "Near-Out", "InfS-In", "InfS-Out"], rows)
            + "\n\n" + table(["headline", "paper", "measured"], [
                ["Inf-S-outer over Base-inner (geomean)", "4.4×",
                 f"{geomean(outer):.1f}×"]]))


def fig16_gaps(a):
    """(workload, forced-tile rows, best forced cycles, runtime row, gap)
    per Fig 16 workload; gap is the runtime tile's distance from the best
    forced tile."""
    out = []
    for w, forced in a.tiles(2).items():
        best = min(r["sim_cycles"] for _, r in forced)
        chosen = a.get(w, "Inf-S")
        gap = chosen["sim_cycles"] / best - 1.0
        out.append((w, forced, best, chosen, gap))
    return out


def view_fig16(a):
    rows, worst, header = [], 0.0, None
    for w, forced, best, chosen, gap in fig16_gaps(a):
        header = header or [f"{t[0]}x{t[1]}" for t, _ in forced]
        tile = chosen["chosen_tile"] + [0, 0]
        worst = max(worst, gap)
        rows.append([w] + [f"{r['sim_cycles'] / best:.2f}"
                           for _, r in forced]
                    + [f"{tile[0]}x{tile[1]}", f"{100.0 * gap:+.1f}%"])
    return (table(["benchmark"] + (header or []) + ["chosen", "vs-best"],
                  rows)
            + "\n\n" + table(["quantity", "paper", "measured"], [
                ["heuristic vs oracle (worst)", "≤2%",
                 f"{100.0 * worst:.1f}%"]]))


def view_fig17(a):
    parts, marked = [], False
    for w, forced in a.tiles(3).items():
        base_tile, base_row = forced[0]
        base = base_row["sim_cycles"]
        cells = {(t[0], t[1]): base / r["sim_cycles"] for t, r in forced}
        xs = sorted({t[0] for t, _ in forced}, reverse=True)
        ys = sorted({t[1] for t, _ in forced})
        chosen = a.get(w, "Inf-S")
        degraded = any(r["regions_degraded"] > 0
                       for r in [chosen] + [r for _, r in forced])
        marked |= degraded
        rows = [[str(x)] + [f"{cells[(x, y)]:.2f}" if (x, y) in cells
                            else "-" for y in ys] for x in xs]
        base_name = "x".join(str(t) for t in base_tile)
        parts.append(
            f"**{w}**{DEGRADED if degraded else ''} (rows = X tile, "
            f"cols = Y tile, Z = 256/X/Y; speedup over {base_name})\n\n"
            + table(["X\\Y"] + [str(y) for y in ys], rows)
            + "\n\nruntime-chosen tile: "
            + " ".join(str(t) for t in chosen["chosen_tile"])
            + f" ({base / chosen['sim_cycles']:.2f}× over {base_name})")
    return with_footnote("\n\n".join(parts), marked)


def view_fig18(a):
    rows, effs = [], [[] for _ in FIVE]
    for _, w in a.canonical():
        base_j = a.get(w, "Base")["energy_j"]
        cells = [w]
        for c, p in enumerate(FIVE):
            j = a.get(w, p)["energy_j"]
            eff = base_j / j if j > 0 else 0.0
            effs[c].append(eff)
            cells.append(f"{eff:.2f}")
        rows.append(cells)
    gm = [geomean(v) for v in effs]
    rows.append(["**geomean**"] + [f"**{v:.2f}**" for v in gm])
    return (table(["energy eff."] + list(FIVE), rows)
            + "\n\n" + table(["ratio", "paper", "measured"], [
                ["Near-L3 over Base (geomean)", "~1.6×", f"{gm[1]:.1f}×"],
                ["In-L3 over Near-L3", "1.5×", f"{gm[2] / gm[1]:.1f}×"],
                ["Inf-S over Near-L3", "2.4×", f"{gm[3] / gm[1]:.1f}×"]]))


def stage_of(phase):
    """Fig 19's stage bucket of a PointNet++ phase ("SA1.sample" ->
    "SA1 sample"; FC layers keep their name)."""
    head, dot, tail = phase.rpartition(".")
    if not dot:
        head = tail = phase
    if tail in ("sample", "query", "gather", "aggregate"):
        return f"{head} {tail}"
    if tail.startswith("mlp"):
        return f"{head} mlp"
    return phase


PAPER_FIG19 = {"Near-L3": ("1.31×", "1.12×"), "In-L3": ("1.10×", "1.37×"),
               "Inf-S": ("1.69×", "1.93×")}


def view_fig19(a):
    nets = [w for w in a.five_paradigm() if w.startswith("pointnet")]
    parts, speedups = [], {}
    for w in nets:
        base = a.get(w, "Base")["sim_cycles"]
        rows = []
        for p in ("Base", "Near-L3", "In-L3", "Inf-S"):
            r = a.get(w, p)
            cycles = r["sim_cycles"]
            stages = {}
            for name, t in r["phase_cycles"]:
                s = stage_of(name)
                stages[s] = stages.get(s, 0.0) + t
            shown = " ".join(f"{s} {100.0 * t / cycles:.0f}%"
                             for s, t in stages.items()
                             if t / cycles >= 0.03)
            speedups[(w, p)] = f"{base / cycles:.2f}×"
            rows.append([p, str(cycles), speedups[(w, p)], shown])
        parts.append(f"**{w}**\n\n" + table(
            ["config", "total cycles", "speedup", "stages (≥3 %)"], rows))
    head = [[p, ssg, speedups[(nets[0], p)], msg, speedups[(nets[-1], p)]]
            for p, (ssg, msg) in PAPER_FIG19.items()]
    parts.append(table(["config", "paper SSG", f"measured {nets[0]}",
                        "paper MSG", f"measured {nets[-1]}"], head))
    return "\n\n".join(parts)


def view_jit(a):
    rows, total_us, outlier = [], 0.0, (0.0, "")
    ticks_per_us = a.machine["ghz"] * 1e3
    variants = a.variants()
    for w in variants:
        r = a.get(w, "Inf-S")
        jit = r["cycles"]["jit"]
        us = jit / ticks_per_us
        total_us += us
        outlier = max(outlier, (us, w))
        share = 100.0 * jit / max(r["sim_cycles"], 1)
        rows.append([w, str(jit), f"{us:.1f}", f"{share:.1f}%",
                     str(r["lowerings"]), str(r["memo_hits"])])
    ratios = [a.get(w, "Inf-S")["sim_cycles"]
              / a.get(w, "Inf-S-noJIT")["sim_cycles"]
              for _, w in a.canonical()]
    return (table(["benchmark", "jit-cycles", "jit-us", "jit-share",
                   "lowerings", "memo-hits"], rows)
            + "\n\n" + table(["quantity", "paper", "measured"], [
                ["mean JIT time per variant", "220 µs",
                 f"{total_us / len(variants):.0f} µs"],
                ["largest JIT time (the outlier)", "1616 µs (gauss_elim)",
                 f"{outlier[0]:.1f} µs ({outlier[1]})"],
                ["Inf-S-noJIT over Inf-S (geomean)", "1.19×",
                 f"{geomean(ratios):.2f}×"]]))


def view_area(a):
    m = a.machine
    base, inmem, near = (m["area_baseline_mm2"], m["area_in_memory_mm2"],
                         m["area_near_memory_mm2"])
    total = base + inmem + near
    per_array = 1e6 * inmem / m["compute_arrays"]
    return table(["quantity (22 nm)", "paper", "measured"], [
        ["baseline CPU (McPAT)", "—", f"{base:.2f} mm²"],
        ["in-memory compute overhead", "66.75 mm²", f"{inmem:.2f} mm²"],
        ["near-memory support logic", "28.16 mm²", f"{near:.2f} mm²"],
        ["total chip", "—", f"{total:.2f} mm²"],
        ["whole-chip overhead", "6.52%",
         f"{100.0 * ((inmem + near) / total):.2f}%"],
        [f"compute overhead per 8 kB array ({m['compute_arrays']} arrays)",
         "—", f"{per_array:.1f} µm²"]])


def view_ablations(a):
    memo, relowered = a.get("stencil2d", "Inf-S"), a.get(
        "stencil2d", "Inf-S", "memo_off")
    untiled = a.get("stencil2d", "Inf-S", "tile=256x1")
    return table(["ablation (stencil2d, Inf-S)", "with", "without",
                  "cycles without / with"], [
        ["JIT memoization: jit cycles", str(memo["cycles"]["jit"]),
         str(relowered["cycles"]["jit"]),
         f"{relowered['sim_cycles'] / memo['sim_cycles']:.2f}×"],
        ["runtime tile vs untiled 256x1: cycles", str(memo["sim_cycles"]),
         str(untiled["sim_cycles"]),
         f"{untiled['sim_cycles'] / memo['sim_cycles']:.2f}×"]])


VIEWS = {
    "eq1": view_eq1, "fig2": view_fig2, "fig11": view_fig11,
    "fig12": view_fig12, "fig13": view_fig13, "fig14": view_fig14,
    "fig15": view_fig15, "fig16": view_fig16, "fig17": view_fig17,
    "fig18": view_fig18, "fig19": view_fig19, "jit": view_jit,
    "area": view_area, "ablations": view_ablations,
}


def invariant_failures(a):
    fails = []
    for w in a.five_paradigm():
        c = {p: a.get(w, p)["sim_cycles"] for p in FIVE}
        for lo, hi in (("Near-L3", "Base"), ("Inf-S", "In-L3"),
                       ("Inf-S-noJIT", "Inf-S")):
            if c[lo] > c[hi]:
                fails.append(f"{w}: {lo} {c[lo]} > {hi} {c[hi]} cycles")
    for r in a.rows:
        if r["in_mem_ops"] > r["total_ops"]:
            fails.append(f"{r['name']}: in_mem_ops {r['in_mem_ops']} > "
                         f"total_ops {r['total_ops']}")
    for w, _, _, _, gap in fig16_gaps(a):
        if gap > MAX_TILE_GAP:
            fails.append(f"{w}: runtime tile {100.0 * gap:.1f}% behind "
                         f"the best forced tile (> "
                         f"{100.0 * MAX_TILE_GAP:.0f}%)")
    return fails


BLOCK = re.compile(r"(<!-- figures\.py:(\w+) -->\n)(.*?)"
                   r"(<!-- /figures\.py:\2 -->)", re.S)


def render_doc(doc, blocks):
    """(@p doc with every generated block replaced, names of the blocks
    that changed, names of the blocks @p doc lacks)."""
    missing, stale = set(blocks), []

    def sub(m):
        name = m.group(2)
        missing.discard(name)
        if name not in blocks:
            return m.group(0)
        text = blocks[name] + "\n"
        if text != m.group(3):
            stale.append(name)
        return m.group(1) + text + m.group(4)
    return BLOCK.sub(sub, doc), stale, sorted(missing)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("artifact")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--check", metavar="DOC")
    mode.add_argument("--write", metavar="DOC")
    args = ap.parse_args()

    with open(args.artifact) as f:
        data = json.load(f)
    if data.get("schema") != "infs-bench-v6" or data.get("mode") != "paper":
        print(f"{args.artifact}: not an infs-bench-v6 paper artifact",
              file=sys.stderr)
        return 2
    a = Artifact(data)
    blocks = {name: view(a) for name, view in VIEWS.items()}

    status = 0
    doc_path = args.check or args.write
    if doc_path is None:
        for name, text in blocks.items():
            print(f"<!-- {name} -->\n{text}\n")
    else:
        with open(doc_path) as f:
            doc = f.read()
        new_doc, stale, missing = render_doc(doc, blocks)
        if missing:
            print(f"{doc_path}: no block for {', '.join(missing)}",
                  file=sys.stderr)
            status = 1
        if args.write:
            with open(doc_path, "w") as f:
                f.write(new_doc)
        elif stale:
            print(f"{doc_path}: stale generated block(s): "
                  f"{', '.join(stale)}; rerun with --write",
                  file=sys.stderr)
            status = 1

    for line in invariant_failures(a):
        print(f"invariant failed: {line}", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
