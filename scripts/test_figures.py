#!/usr/bin/env python3
"""Tests for figures.py: rendering, invariants and the --check contract.

Each test drives figures.py as a subprocess on a small synthetic paper
artifact; the exit status is what CI depends on.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "figures.py")
sys.path.insert(0, HERE)
import figures  # noqa: E402

FIVE = {"Base": 1000, "Near-L3": 800, "In-L3": 500, "Inf-S": 400,
        "Inf-S-noJIT": 300}


def row(workload, paradigm, variant="", cycles=1000, **over):
    name = f"{workload}@{paradigm}" + (f"/{variant}" if variant else "")
    r = {"name": name, "sim_cycles": cycles, "wall_ms": 0.1,
         "cycles": dict.fromkeys(("dram", "jit", "move", "compute", "sync",
                                  "final_reduce", "mix", "near", "core"), 0),
         "noc_hop_bytes": {"control": 10.0, "data": 40.0, "offload": 5.0,
                           "inter_tile": 1.0},
         "noc_utilization": 0.5, "intra_tile_bytes": 8.0,
         "inter_tile_bytes": 2.0, "inter_tile_noc_bytes": 1.0,
         "energy_j": cycles * 1e-6, "total_ops": 100, "in_mem_ops": 90,
         "regions_degraded": 0, "chosen_tile": [16, 16], "schedule_id": -1,
         "schedule_candidates": 0, "lowerings": 1, "memo_hits": 0,
         "phase_cycles": [["SA1.sample", cycles // 2],
                          ["SA1.mlp0", cycles // 2]]}
    r.update(over)
    return r


def artifact():
    rows = [row(w, p, cycles=c)
            for w in ("stencil2d", "mm_outer", "mm_inner", "pointnet_ssg")
            for p, c in FIVE.items()]
    rows += [row("vec_add/16k", p, cycles=c) for p, c in
             (("Base-1T", 900), ("Base", 300), ("Near-L3", 30),
              ("In-L3", 60))]
    rows += [row("stencil2d", "Inf-S", "tile=256x1", cycles=700),
             row("stencil2d", "Inf-S", "tile=16x16", cycles=400),
             row("stencil2d", "Inf-S", "memo_off", cycles=450),
             row("stencil3d", "Inf-S", cycles=500, chosen_tile=[4, 8, 8]),
             row("stencil3d", "Inf-S", "tile=256x1x1", cycles=900),
             row("stencil3d", "Inf-S", "tile=4x8x8", cycles=500,
                 regions_degraded=1)]
    machine = dict(summary="test machine", ghz=2.0, compute_arrays=4,
                   in_mem_peak_ops_per_cycle=128.0, probe_cycles=4,
                   fp32_peak_ops_per_cycle=16.0, probe_in_mem_ops=64,
                   base_peak_ops_per_cycle=8.0, area_baseline_mm2=100.0,
                   area_in_memory_mm2=5.0, area_near_memory_mm2=2.0)
    return {"schema": "infs-bench-v6", "mode": "paper", "threads": 1,
            "machine": machine, "workloads": rows}


class FiguresTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def run_figures(self, data, *flags):
        path = os.path.join(self.dir.name, "paper.json")
        with open(path, "w") as f:
            json.dump(data, f)
        return subprocess.run([sys.executable, SCRIPT, path, *flags],
                              capture_output=True, text=True)

    def test_renders_every_view(self):
        res = self.run_figures(artifact())
        self.assertEqual(res.returncode, 0, res.stderr)
        for name in figures.VIEWS:
            self.assertIn(f"<!-- {name} -->", res.stdout)
        # stencil2d Inf-S speedup over Base and the degraded 3-D tile.
        self.assertIn("| stencil2d | 1.00 | 1.25 | 2.00 | 2.50 | 3.33 |",
                      res.stdout)
        self.assertIn(figures.FOOTNOTE, res.stdout)

    def test_violated_invariant_exits_1(self):
        # Inf-S slower than In-L3; more in-memory ops than ops; the
        # runtime tile 33 % behind the best forced tile.
        for name, change in (("stencil2d@Inf-S", {"sim_cycles": 600}),
                             ("mm_inner@Base", {"in_mem_ops": 101}),
                             ("stencil2d@Inf-S/tile=16x16",
                              {"sim_cycles": 300})):
            with self.subTest(name):
                data = artifact()
                next(r for r in data["workloads"]
                     if r["name"] == name).update(change)
                res = self.run_figures(data)
                self.assertEqual(res.returncode, 1)
                self.assertIn("invariant failed", res.stderr)

    def test_edited_block_fails_check(self):
        doc = os.path.join(self.dir.name, "EXPERIMENTS.md")
        with open(doc, "w") as f:
            f.write("".join(f"## {n}\n<!-- figures.py:{n} -->\n"
                            f"<!-- /figures.py:{n} -->\n"
                            for n in figures.VIEWS))
        self.assertEqual(self.run_figures(artifact(), "--check", doc)
                         .returncode, 1)
        self.assertEqual(self.run_figures(artifact(), "--write", doc)
                         .returncode, 0)
        self.assertEqual(self.run_figures(artifact(), "--check", doc)
                         .returncode, 0)
        with open(doc) as f:
            text = f.read()
        with open(doc, "w") as f:
            f.write(text.replace("| 2.50 |", "| 2.51 |", 1))
        res = self.run_figures(artifact(), "--check", doc)
        self.assertEqual(res.returncode, 1)
        self.assertIn("stale generated block(s): fig11", res.stderr)


if __name__ == "__main__":
    unittest.main()
