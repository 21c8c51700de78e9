#!/usr/bin/env python3
"""Checks tools/perf_pairs.py's arithmetic on canned result lines.

Runs no benchmark: `python3 tools/test_perf_pairs.py` exits 0 when every
check holds.
"""
import json
import math
import pathlib
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import perf_pairs  # noqa: E402

METRICS = [
    {"name": "op_ms", "unit": "ms", "better": "lower"},
    {"name": "work_per_s", "unit": "1/s", "better": "higher"},
    {"name": "setup_s", "unit": "s", "better": "lower"},
]


def line(op_ms, work_per_s, correct=True, failed=0):
    """One perfbench result line, parsed; setup_s is deliberately absent."""
    return json.loads(json.dumps({
        "correct": correct, "attempted": 10, "failed": failed,
        "metrics": {"op_ms": {"value": op_ms, "unit": "ms"},
                    "work_per_s": {"value": work_per_s, "unit": "1/s"}}}))


class PerfPairsArithmetic(unittest.TestCase):
    def test_quartiles_interpolate_between_order_statistics(self):
        self.assertEqual(perf_pairs.quartiles([7.0]), (7.0, 7.0, 7.0))
        self.assertEqual(perf_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]), (2.0, 3.0, 4.0))
        self.assertEqual(perf_pairs.quartiles([1.0, 2.0, 3.0, 4.0]), (1.75, 2.5, 3.25))

    def test_wins_follow_the_metric_direction_and_ties_do_not_count(self):
        self.assertEqual(perf_pairs.wins([10, 10, 10], [9, 10, 11], "lower"), 1)
        self.assertEqual(perf_pairs.wins([10, 10, 10], [9, 10, 11], "higher"), 1)
        self.assertEqual(perf_pairs.wins([5, 6], [1, 2], "lower"), 2)

    def test_summary_of_canned_pairs(self):
        pairs = [(line(50.0, 100.0), line(40.0, 120.0)),
                 (line(52.0, 98.0), line(41.0, 97.0)),
                 (line(48.0, 102.0), line(49.0, 110.0)),
                 (line(60.0, 90.0), line(39.0, 130.0))]
        rows = {r[0]: r for r in perf_pairs.summarize(METRICS, pairs)}
        self.assertEqual(set(rows), {"op_ms", "work_per_s"})  # setup_s absent: skipped

        name, unit, base, change, delta, won, n = rows["op_ms"]
        self.assertEqual((unit, n), ("ms", 4))
        self.assertEqual(base, (49.5, 51.0, 54.0))    # base sorted: 48 50 52 60
        self.assertEqual(change, (39.75, 40.5, 43.0))  # change sorted: 39 40 41 49
        self.assertTrue(math.isclose(delta, (40.5 - 51.0) / 51.0 * 100.0))
        self.assertEqual(won, 3)  # 49 > 48 loses the third pair

        _, _, base, change, delta, won, _ = rows["work_per_s"]
        self.assertEqual(base[1], 99.0)
        self.assertEqual(change[1], 115.0)
        self.assertEqual(won, 3)  # 97 < 98 loses the second pair
        self.assertIn("op_ms", perf_pairs.format_rows("demo", list(rows.values())))

    def test_only_clean_result_lines_pass(self):
        self.assertTrue(perf_pairs.run_ok(line(1.0, 1.0)))
        self.assertFalse(perf_pairs.run_ok(line(1.0, 1.0, correct=False, failed=1)))
        self.assertFalse(perf_pairs.run_ok(line(1.0, 1.0, failed=2)))
        self.assertFalse(perf_pairs.run_ok(None))


if __name__ == "__main__":
    unittest.main()
