#!/usr/bin/env python3
"""Unit tests for bench_compare.py, the BENCH_*.json regression gate.

Covers the four verdicts the gate can reach: a pass, a normalized
throughput regression, a scenario missing from the candidate, and a
hardware mismatch between baseline and candidate. Wired into CTest as
`bench_compare_py` (skipped when python3 is unavailable).
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402


def bench_doc(items_per_s, hardware_concurrency=4, simd_tier="avx2"):
    """A bench JSON in the shape the benches emit; `items_per_s` maps
    scenario name -> throughput, first entry is the reference."""
    return {
        "workload": {"items": 400, "hardware_concurrency": hardware_concurrency,
                     "simd_tier": simd_tier},
        "configs": [{"name": name, "items_per_s": value}
                    for name, value in items_per_s.items()],
    }


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)
        # Keep CI's step summary out of the test's way.
        self.saved_summary = os.environ.pop("GITHUB_STEP_SUMMARY", None)
        self.addCleanup(self.restore_summary)

    def restore_summary(self):
        if self.saved_summary is not None:
            os.environ["GITHUB_STEP_SUMMARY"] = self.saved_summary

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as handle:
            json.dump(doc, handle)
        return path

    def run_gate(self, baseline, candidate):
        """Runs the gate on one pair; returns (exit code, stdout + stderr)."""
        base = self.write("baseline.json", baseline)
        cand = self.write("candidate.json", candidate)
        out = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                bench_compare.main(["bench_compare.py", base, cand])
            except SystemExit as exit_:
                code = exit_.code
        return code, out.getvalue()

    def test_within_threshold_passes(self):
        code, text = self.run_gate(
            bench_doc({"ref": 100.0, "fast": 200.0}),
            bench_doc({"ref": 50.0, "fast": 90.0}))  # -10% normalized
        self.assertEqual(code, 0, text)
        self.assertIn("bench gate passed", text)

    def test_normalized_regression_fails(self):
        code, text = self.run_gate(
            bench_doc({"ref": 100.0, "fast": 200.0}),
            bench_doc({"ref": 100.0, "fast": 140.0}))  # -30% normalized
        self.assertEqual(code, 1)
        self.assertIn("fast: normalized throughput regressed 30.0%", text)

    def test_missing_scenario_fails(self):
        code, text = self.run_gate(
            bench_doc({"ref": 100.0, "fast": 200.0}),
            bench_doc({"ref": 100.0}))
        self.assertEqual(code, 1)
        self.assertIn("scenario 'fast' is in the baseline", text)

    def test_hardware_mismatch_fails_naming_both_values(self):
        code, text = self.run_gate(
            bench_doc({"ref": 100.0, "fast": 200.0}, hardware_concurrency=1),
            bench_doc({"ref": 100.0, "fast": 200.0}, hardware_concurrency=4))
        self.assertEqual(code, 1)
        self.assertIn("hardware mismatch: hardware_concurrency is 1", text)
        self.assertIn("but 4 in the candidate", text)
        code, text = self.run_gate(
            bench_doc({"ref": 100.0}, simd_tier="scalar"),
            bench_doc({"ref": 100.0}, simd_tier="avx2"))
        self.assertEqual(code, 1)
        self.assertIn("simd_tier is 'scalar'", text)
        self.assertIn("but 'avx2' in the candidate", text)

    def test_missing_hardware_fields_fail(self):
        legacy = bench_doc({"ref": 100.0})
        del legacy["workload"]["hardware_concurrency"]
        code, text = self.run_gate(legacy, bench_doc({"ref": 100.0}))
        self.assertEqual(code, 1)
        self.assertIn("hardware_concurrency is None", text)


if __name__ == "__main__":
    unittest.main()
