#!/usr/bin/env python3
"""Tests for bench_diff.py: schema acceptance, gating, backend rules.

Written as unittest.TestCase so both `python3 -m unittest` (what CI runs;
no extra packages) and `pytest scripts/` (local convenience) discover
them. Each test drives bench_diff.py as a subprocess — the exit status
IS the contract CI depends on.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_diff.py")


def row(name, sim_cycles=1000, checksum="0x00000000deadbeef",
        wall_ms=1.0, **extra):
    r = {"name": name, "sim_cycles": sim_cycles, "checksum": checksum,
         "wall_ms": wall_ms}
    r.update(extra)
    return r


def bench_file(rows, schema="infs-bench-v5", backend="fabric"):
    return {"schema": schema, "mode": "quick", "threads": 1, "repeat": 1,
            "backend": backend, "workloads": rows}


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, fname, data):
        path = os.path.join(self.dir.name, fname)
        with open(path, "w") as f:
            json.dump(data, f)
        return path

    def run_diff(self, base, cur, *flags):
        return subprocess.run(
            [sys.executable, SCRIPT,
             self.write("base.json", base), self.write("cur.json", cur),
             *flags],
            capture_output=True, text=True)

    # ---- schema acceptance -------------------------------------------

    def test_unknown_schema_rejected(self):
        good = bench_file([row("vec_add")])
        bad = bench_file([row("vec_add")], schema="infs-bench-v99")
        res = self.run_diff(good, bad)
        self.assertEqual(res.returncode, 2)
        self.assertIn("unexpected schema", res.stderr + res.stdout)

    def test_retired_schema_rejected(self):
        # The v1-v4 schemas are no longer accepted.
        good = bench_file([row("vec_add")])
        old = bench_file([row("vec_add")], schema="infs-bench-v4")
        self.assertEqual(self.run_diff(old, good).returncode, 2)

    def test_v5_schema_accepted(self):
        data = bench_file(
            [row("vec_add", schedule_id=1, schedule_candidates=3,
                 fabric_breakdown={"scratch_allocs": 12,
                                   "bank_occupancy_imbalance": 0.25})])
        data["simd_isa"] = "avx2"
        data["numa_nodes"] = 2
        self.assertEqual(self.run_diff(data, data).returncode, 0)

    def test_v6_paper_artifact_gates_sim_cycles(self):
        # --paper rows carry no checksum; sim_cycles still gate.
        def paper(cycles):
            return {"schema": "infs-bench-v6", "mode": "paper", "workloads":
                    [{"name": "a@Inf-S", "sim_cycles": cycles, "wall_ms": 1}]}
        self.assertEqual(self.run_diff(paper(9), paper(9)).returncode, 0)
        self.assertEqual(self.run_diff(paper(9), paper(99)).returncode, 1)

    def test_v6_paper_artifact_gates_every_field_but_wall(self):
        # Energy, NoC classes and utilization, categories and ablation
        # variants must match exactly, improvements included; wall_ms
        # never gates.
        def paper(**changes):
            r = {"name": "a@Inf-S", "sim_cycles": 9, "wall_ms": 1,
                 "energy_j": 0.5, "cycles": {"move": 4, "compute": 5},
                 "noc_hop_bytes": {"data": 64, "inter_tile": 32},
                 "noc_utilization": 0.25,
                 "ablation": [{"variant": "base", "sim_cycles": 9,
                               "wall_ms": 1}]}
            r.update(changes)
            return {"schema": "infs-bench-v6", "mode": "paper",
                    "workloads": [r]}
        base = paper()
        self.assertEqual(self.run_diff(base, base).returncode, 0)
        self.assertEqual(
            self.run_diff(base, paper(wall_ms=7, ablation=[
                {"variant": "base", "sim_cycles": 9, "wall_ms": 3}]))
            .returncode, 0)
        for changes in ({"energy_j": 0.4},
                        {"cycles": {"move": 4, "compute": 6}},
                        {"noc_hop_bytes": {"data": 64, "inter_tile": 0}},
                        {"noc_utilization": 0.25000000000000006},
                        {"sim_cycles": 8},
                        {"ablation": [{"variant": "base", "sim_cycles": 8,
                                       "wall_ms": 1}]},
                        {"chosen_tile": [16, 16]}):
            res = self.run_diff(base, paper(**changes))
            self.assertEqual(res.returncode, 1, changes)
            self.assertIn(f"changed {next(iter(changes))}", res.stderr)

    def test_v5_rows_gate_only_cycles_and_checksums(self):
        # The exact gate is v6-only: a v5 energy or wall change passes.
        base = bench_file([row("vec_add", energy_j=0.5)])
        cur = bench_file([row("vec_add", energy_j=0.4, wall_ms=9.0)])
        self.assertEqual(self.run_diff(base, cur).returncode, 0)

    # ---- sim_cycles gate ---------------------------------------------

    def test_sim_cycles_regression_fails(self):
        base = bench_file([row("vec_add", sim_cycles=1000)])
        cur = bench_file([row("vec_add", sim_cycles=1200)])  # +20%
        res = self.run_diff(base, cur)
        self.assertEqual(res.returncode, 1)
        self.assertIn("sim_cycles", res.stderr)

    def test_sim_cycles_within_budget_passes(self):
        base = bench_file([row("vec_add", sim_cycles=1000)])
        cur = bench_file([row("vec_add", sim_cycles=1100)])  # +10%
        self.assertEqual(self.run_diff(base, cur).returncode, 0)

    def test_max_regress_flag_tightens_gate(self):
        base = bench_file([row("vec_add", sim_cycles=1000)])
        cur = bench_file([row("vec_add", sim_cycles=1100)])
        res = self.run_diff(base, cur, "--max-regress", "5")
        self.assertEqual(res.returncode, 1)

    def test_sim_cycles_gated_even_across_backends(self):
        # The Executor timing model is backend-independent, so cycles
        # gate no matter which backend produced the file.
        base = bench_file([row("vec_add", sim_cycles=1000)])
        cur = bench_file([row("vec_add", sim_cycles=2000)],
                         backend="timing")
        self.assertEqual(self.run_diff(base, cur).returncode, 1)

    def test_sim_cycles_gate_is_directional(self):
        # A reduction of any magnitude must always pass: the regression
        # gate is one-sided.
        base = bench_file([row("vec_add", sim_cycles=1000)])
        cur = bench_file([row("vec_add", sim_cycles=10)])  # -99%
        self.assertEqual(self.run_diff(base, cur).returncode, 0)

    def test_missing_workload_fails(self):
        base = bench_file([row("vec_add"), row("dwt2d")])
        cur = bench_file([row("vec_add")])
        res = self.run_diff(base, cur)
        self.assertEqual(res.returncode, 1)
        self.assertIn("missing", res.stderr)

    # ---- checksum gate ------------------------------------------------

    def test_checksum_mismatch_fails_same_backend(self):
        base = bench_file([row("vec_add", checksum="0x1111")])
        cur = bench_file([row("vec_add", checksum="0x2222")])
        res = self.run_diff(base, cur)
        self.assertEqual(res.returncode, 1)
        self.assertIn("bit drift", res.stderr)

    def test_checksum_gated_fabric_vs_functional(self):
        # fabric vs functional checksums are bit-certified identical, so
        # a drift between them is a real bug and must gate.
        base = bench_file([row("vec_add", checksum="0x1111")],
                          backend="fabric")
        cur = bench_file([row("vec_add", checksum="0x2222")],
                         backend="functional")
        self.assertEqual(self.run_diff(base, cur).returncode, 1)

    def test_checksum_matching_fabric_vs_functional_passes(self):
        base = bench_file([row("vec_add")], backend="fabric")
        cur = bench_file([row("vec_add")], backend="functional")
        self.assertEqual(self.run_diff(base, cur).returncode, 0)

    def test_checksum_not_gated_vs_timing_backend(self):
        # Timing-backend rows carry functional-store fallback hashes,
        # not fabric bit patterns: report, don't gate.
        base = bench_file([row("vec_add", checksum="0x1111")])
        cur = bench_file([row("vec_add", checksum="0x2222")],
                         backend="timing")
        res = self.run_diff(base, cur)
        self.assertEqual(res.returncode, 0)
        self.assertIn("ungated", res.stdout)

    def test_zero_checksum_reported_not_gated(self):
        base = bench_file([row("vec_add", checksum="0x0")])
        cur = bench_file([row("vec_add", checksum="0x2222")])
        res = self.run_diff(base, cur)
        self.assertEqual(res.returncode, 0)
        self.assertIn("uncovered", res.stdout)

    # ---- ablation variants --------------------------------------------

    def test_ablation_variants_gate(self):
        # Each variant present in both files gates like a row: a
        # sim_cycles regression or a checksum drift in one variant fails.
        def ablated(egraph_cycles, egraph_sum):
            return bench_file([row("conv2d", ablation=[
                {"variant": "base", "sim_cycles": 1000,
                 "checksum": "0x1111"},
                {"variant": "egraph_on", "sim_cycles": egraph_cycles,
                 "checksum": egraph_sum}])], backend="functional")
        base = ablated(900, "0x2222")
        self.assertEqual(self.run_diff(base, base).returncode, 0)
        res = self.run_diff(base, ablated(2000, "0x2222"))
        self.assertEqual(res.returncode, 1)
        self.assertIn("conv2d/egraph_on: sim_cycles", res.stderr)
        res = self.run_diff(base, ablated(900, "0x3333"))
        self.assertEqual(res.returncode, 1)
        self.assertIn("conv2d/egraph_on: checksum", res.stderr)
        # A run without --ablate has no variants to compare.
        plain = bench_file([row("conv2d")], backend="functional")
        self.assertEqual(self.run_diff(base, plain).returncode, 0)

    # ---- backend expectations ----------------------------------------

    def test_expect_backend_match_passes(self):
        data = bench_file([row("vec_add")], backend="functional")
        res = self.run_diff(data, data, "--expect-backend", "functional")
        self.assertEqual(res.returncode, 0)

    def test_expect_backend_mismatch_fails(self):
        data = bench_file([row("vec_add")], backend="fabric")
        res = self.run_diff(data, data, "--expect-backend", "functional")
        self.assertEqual(res.returncode, 2)
        self.assertIn("expected", res.stderr + res.stdout)


if __name__ == "__main__":
    unittest.main()
