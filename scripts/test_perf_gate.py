#!/usr/bin/env python3
"""Unit tests for the perf gate's verdict rule, on synthetic samples.

    python3 scripts/test_perf_gate.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from perf_gate import verdict  # noqa: E402

END_TO_END = [
    {"name": "run_s", "better": "lower", "bound": 0.25},
    {"name": "queries_answered", "better": "higher", "bound": 0.10},
]

# Ten base run_s samples: median 1.0, IQR 0.04.
BASE_RUN_S = [0.96, 0.97, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.03, 1.04]


def result(run_s, queries=1000, correct=True, failed=0):
    return {
        "correct": correct,
        "attempted": 4,
        "failed": failed,
        "metrics": {
            "run_s": {"value": run_s, "unit": "s"},
            "queries_answered": {"value": queries, "unit": "count"},
        },
    }


def runs(samples, **kw):
    return [result(s, **kw) for s in samples]


def failures(base, head):
    return verdict(base, head, END_TO_END)[1]


class VerdictTest(unittest.TestCase):
    def test_identical_samples_pass(self):
        self.assertEqual(failures(runs(BASE_RUN_S), runs(BASE_RUN_S)), [])

    def test_nine_of_ten_slower_beyond_the_iqr_fails(self):
        # +8 % in nine pairs, equal in one: the medians differ by 0.08,
        # twice the base IQR, and well inside the 0.25 bound.
        head = [s * 1.08 for s in BASE_RUN_S[:9]] + BASE_RUN_S[9:]
        why = failures(runs(BASE_RUN_S), runs(head))
        self.assertEqual(len(why), 1)
        self.assertIn("9/10 pairs", why[0])

    def test_eight_of_ten_slower_passes(self):
        head = [s * 1.08 for s in BASE_RUN_S[:8]] + [s * 0.99 for s in BASE_RUN_S[8:]]
        self.assertEqual(failures(runs(BASE_RUN_S), runs(head)), [])

    def test_nine_of_ten_slower_within_the_iqr_passes(self):
        head = [s * 1.001 for s in BASE_RUN_S[:9]] + BASE_RUN_S[9:]
        self.assertEqual(failures(runs(BASE_RUN_S), runs(head)), [])

    def test_median_beyond_the_bound_fails_with_mixed_pairs(self):
        # HEAD's median is 40 % above the base's, but HEAD wins the four
        # pairs where the base ran slow: the pair rule stays quiet, the
        # bound does not.
        base = [1.0] * 6 + [2.0] * 4
        head = [1.4] * 6 + [1.2] * 4
        why = failures(runs(base), runs(head))
        self.assertEqual(len(why), 1)
        self.assertIn("bound", why[0])

    def test_higher_is_better_metric_uses_its_direction(self):
        base = runs(BASE_RUN_S, queries=1000)
        self.assertEqual(failures(base, runs(BASE_RUN_S, queries=1200)), [])
        why = failures(base, runs(BASE_RUN_S, queries=800))
        self.assertEqual(len(why), 1)
        self.assertIn("queries_answered", why[0])

    def test_failed_runs_fail_on_either_side(self):
        good = runs(BASE_RUN_S)
        for bad in (
            runs(BASE_RUN_S[:9]) + [result(1.0, failed=1)],
            runs(BASE_RUN_S[:9]) + [result(1.0, correct=False)],
        ):
            self.assertNotEqual(failures(good, bad), [])
            self.assertNotEqual(failures(bad, good), [])


if __name__ == "__main__":
    unittest.main()
