#!/usr/bin/env python3
"""Tests for bench_diff.py: schema and backend checks, the exact gate.

Written as unittest.TestCase so both `python3 -m unittest` (what CI runs;
no extra packages) and `pytest scripts/` (local convenience) discover
them. Each test drives bench_diff.py as a subprocess — the exit status
IS the contract CI depends on.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_diff.py")


def row(name, **changes):
    """A --quick row in the shape infs-bench writes, with @p changes."""
    r = {"name": name, "sim_cycles": 1000, "wall_ms": 1.0,
         "cycles": {"jit": 40, "move": 300, "compute": 660},
         "noc_hop_bytes": {"data": 64.0, "inter_tile": 32.0},
         "energy_j": 0.5, "regions_degraded": 0, "chosen_tile": [16, 16],
         "checksum": "0x00000000deadbeef", "job_sim_cycles": 334,
         "commands": 7,
         "cmd_stats": {"fused_moves": 2, "elided_syncs": 1},
         "fabric_breakdown": {"compute": {"count": 3, "wall_ms": 0.25},
                              "mask_cache_hits": 5}}
    r.update(changes)
    return r


def bench_file(rows, schema="infs-bench-v6", backend="functional"):
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

    # ---- schema and backend --------------------------------------------

    def test_v5_schema_rejected_as_retired(self):
        good = bench_file([row("x@Inf-S")])
        old = bench_file([row("x@Inf-S")], schema="infs-bench-v5")
        for base, cur in ((old, good), (good, old)):
            res = self.run_diff(base, cur)
            self.assertEqual(res.returncode, 2)
            self.assertIn("retired schema", res.stderr)

    def test_unknown_schema_rejected(self):
        good = bench_file([row("x@Inf-S")])
        bad = bench_file([row("x@Inf-S")], schema="infs-bench-v99")
        res = self.run_diff(good, bad)
        self.assertEqual(res.returncode, 2)
        self.assertIn("unexpected schema", res.stderr)

    def test_backend_mismatch_exits_2(self):
        base = bench_file([row("x@Inf-S")], backend="fabric")
        cur = bench_file([row("x@Inf-S")], backend="functional")
        res = self.run_diff(base, cur)
        self.assertEqual(res.returncode, 2)
        self.assertIn("not comparable", res.stderr)

    def test_paper_artifacts_name_no_backend(self):
        paper = {"schema": "infs-bench-v6", "mode": "paper", "workloads":
                 [{"name": "a@Inf-S", "sim_cycles": 9, "wall_ms": 1}]}
        self.assertEqual(self.run_diff(paper, paper).returncode, 0)
        res = self.run_diff(paper, bench_file([row("a@Inf-S")]))
        self.assertEqual(res.returncode, 2)

    def test_expect_backend(self):
        data = bench_file([row("x@Inf-S")], backend="functional")
        res = self.run_diff(data, data, "--expect-backend", "functional")
        self.assertEqual(res.returncode, 0)
        res = self.run_diff(data, data, "--expect-backend", "fabric")
        self.assertEqual(res.returncode, 2)
        self.assertIn("expected", res.stderr)

    # ---- the exact gate -------------------------------------------------

    def test_identical_files_pass(self):
        data = bench_file([row("x@Inf-S"), row("x@Inf-S/cmdopt_off")])
        res = self.run_diff(data, data)
        self.assertEqual(res.returncode, 0, res.stderr)

    def test_any_field_change_fails(self):
        # Improvements included: a smaller sim_cycles fails like a larger.
        base = bench_file([row("x@Inf-S")])
        nested = copy.deepcopy(row("x@Inf-S")["cmd_stats"])
        nested["elided_syncs"] = 0
        for changes in ({"sim_cycles": 999},
                        {"sim_cycles": 1001},
                        {"checksum": "0x00000000deadbeee"},
                        {"cmd_stats": nested},
                        {"regions_degraded": 1},
                        {"cycles": {"jit": 40, "move": 301,
                                    "compute": 660}},
                        {"chosen_tile": [32, 8]},
                        {"energy_j": 0.5000000000000001}):
            res = self.run_diff(base, bench_file([row("x@Inf-S",
                                                      **changes)]))
            self.assertEqual(res.returncode, 1, changes)
            self.assertIn(f"changed {next(iter(changes))}", res.stderr)

    def test_added_or_removed_field_fails(self):
        base = bench_file([row("x@Inf-S")])
        grown = bench_file([row("x@Inf-S", program_digest="0x1")])
        self.assertEqual(self.run_diff(base, grown).returncode, 1)
        self.assertEqual(self.run_diff(grown, base).returncode, 1)

    def test_wall_ms_never_gates(self):
        base = bench_file([row("x@Inf-S")])
        fb = copy.deepcopy(row("x@Inf-S")["fabric_breakdown"])
        fb["compute"]["wall_ms"] = 9.75
        self.assertEqual(
            self.run_diff(base, bench_file([row("x@Inf-S", wall_ms=7.0)]))
            .returncode, 0)
        self.assertEqual(
            self.run_diff(base, bench_file([row("x@Inf-S",
                                                fabric_breakdown=fb)]))
            .returncode, 0)

    def test_missing_variant_row_fails(self):
        base = bench_file([row("x@Inf-S"), row("x@Inf-S/cmdopt_off")])
        res = self.run_diff(base, bench_file([row("x@Inf-S")]))
        self.assertEqual(res.returncode, 1)
        self.assertIn("x@Inf-S/cmdopt_off: missing", res.stderr)

    def test_new_row_passes(self):
        base = bench_file([row("x@Inf-S")])
        cur = bench_file([row("x@Inf-S"), row("x@Inf-S/egraph_on")])
        res = self.run_diff(base, cur)
        self.assertEqual(res.returncode, 0)
        self.assertIn("new row", res.stdout)


if __name__ == "__main__":
    unittest.main()
