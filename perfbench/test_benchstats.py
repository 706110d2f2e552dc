"""Tests of the benchmark's statistics helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import benchstats


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2)
        self.assertEqual(benchstats.median([4, 1, 3, 2]), 2.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.median([])


class TailPercentileTest(unittest.TestCase):
    def test_ten_samples_stay_beyond(self):
        values = list(range(1, 41))  # 40 samples, shuffled order is fine
        values.reverse()
        pct, value, n = benchstats.tail_percentile(values)
        self.assertEqual(n, 40)
        self.assertEqual(value, 30)  # 31..40 are the ten beyond it
        self.assertAlmostEqual(pct, 75.0)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_needs_more_than_ten_samples(self):
        self.assertIsNone(benchstats.tail_percentile(list(range(10))))
        pct, value, n = benchstats.tail_percentile(list(range(11)))
        self.assertEqual((value, n), (0, 11))
        self.assertAlmostEqual(pct, 100.0 / 11)


class GeomeanTest(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(benchstats.geomean([2, 8]), 4.0)
        self.assertAlmostEqual(benchstats.geomean([5]), 5.0)

    def test_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            benchstats.geomean([1, 0])
        with self.assertRaises(ValueError):
            benchstats.geomean([])


class LayerTimesTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        def x(name, ts, dur):
            return {"ph": "X", "name": name, "ts": ts, "dur": dur}

        events = [
            {"ph": "M", "name": "process_name"},
            x("core.exec", 1.0, 8.0),
            x("jit.lower", 2.0, 3.0),
            x("uarch.walk", 5.0, 2.0),
            x("pass", 0.0, 10.0),
            x("pass", 20.0, 1.0),
        ]
        passes = benchstats.layer_times(events)
        self.assertEqual(len(passes), 2)
        first = passes[0]
        self.assertAlmostEqual(first["core.exec"][0], 0.008)
        self.assertAlmostEqual(first["core.exec"][1], 0.003)
        self.assertAlmostEqual(first["jit.lower"][1], 0.003)
        self.assertAlmostEqual(first["pass"][1], 0.002)
        self.assertEqual(set(passes[1]), {"pass"})


class CompareTest(unittest.TestCase):
    SPECS = {"host_cpu_ms_p50": {"better": "lower", "bound": 0.1}}

    @staticmethod
    def records(workload, values):
        return [{"workload": workload,
                 "metrics": {"host_cpu_ms_p50": {"value": v, "unit": "ms"}}}
                for v in values]

    def test_one_row_per_workload(self):
        base = self.records("a", [100, 101, 99, 100]) + \
            self.records("b", [10, 10, 10, 10])
        change = self.records("a", [130, 131, 129, 130]) + \
            self.records("b", [10, 10, 10, 10])
        rows = benchstats.compare(base, change, self.SPECS)
        self.assertEqual([w for w, _ in rows], ["a", "b"])
        self.assertEqual(rows[0][1][0][2], "worse")
        self.assertEqual(rows[1][1][0][2], "same")

    def test_wide_spread_is_unresolved(self):
        base = self.records("a", [100, 60, 140, 100, 80, 120])
        change = self.records("a", [100, 70, 130, 105, 85, 125])
        rows = benchstats.compare(base, change, self.SPECS)
        self.assertEqual(rows[0][1][0][2], "unresolved")

    def test_wide_spread_with_clean_win_is_better(self):
        base = self.records("a", [100, 60, 140, 100, 80, 120])
        change = self.records("a", [10, 6, 14, 10, 8, 12])
        rows = benchstats.compare(base, change, self.SPECS)
        self.assertEqual(rows[0][1][0][2], "better")

    def test_higher_is_better(self):
        delta, verdict = benchstats.judge([1.0, 1.0], [0.5, 0.5], 0.1,
                                          "higher")
        self.assertAlmostEqual(delta, -0.5)
        self.assertEqual(verdict, "worse")


if __name__ == "__main__":
    unittest.main()
