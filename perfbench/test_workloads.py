"""Tests of the benchmark's own checks and trace.

Run from the repository root:
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

REFERENCES = workloads.reference_rows()
CLEAN_VERIFY = "".join(f"PASS check {i}\n" for i in range(26)) + "OK: 0 failing check(s)\n"


class CheckOutputTest(unittest.TestCase):
    def row_workload(self, text: str, terms: int) -> dict:
        """A row workload whose recorded digest is that of ``text``."""
        return {
            "row": workloads.Workload(
                argv=(), why="", reference="REFERENCE_COUNTS[5]", terms=terms,
                sha256=hashlib.sha256(text.encode()).hexdigest(),
            )
        }

    def test_clean_outputs_pass(self):
        self.assertEqual(workloads.check_output("verify", 0, CLEAN_VERIFY, REFERENCES), [])
        text = " ".join(map(str, REFERENCES["REFERENCE_COUNTS[5]"])) + "\n"
        with mock.patch.dict(workloads.WORKLOADS, self.row_workload(text, 10)):
            self.assertEqual(workloads.check_output("row", 0, text, REFERENCES), [])

    def test_corrupted_row_fails(self):
        row = list(REFERENCES["REFERENCE_COUNTS[5]"])
        row[7] += 1
        text = " ".join(map(str, row)) + "\n"
        problems = workloads.check_output("deep", 0, text, REFERENCES)
        self.assertTrue(any("first terms" in p for p in problems), problems)
        self.assertTrue(any("sha256" in p for p in problems), problems)

    def test_changed_tail_fails_on_digest(self):
        good = " ".join(map(str, REFERENCES["REFERENCE_COUNTS[5]"] + list(range(7)))) + "\n"
        bad = good.replace(" 6\n", " 7\n")
        with mock.patch.dict(workloads.WORKLOADS, self.row_workload(good, 17)):
            problems = workloads.check_output("row", 0, bad, REFERENCES)
        self.assertEqual(len(problems), 1)
        self.assertIn("sha256", problems[0])

    def test_fail_line_fails(self):
        text = CLEAN_VERIFY.replace("PASS check 3\n", "PASS check 3\nFAIL extra check [n=4]\n")
        problems = workloads.check_output("verify", 0, text, REFERENCES)
        self.assertEqual(problems, ["FAIL extra check [n=4]"])

    def test_missing_pass_line_and_exit_code_fail(self):
        text = CLEAN_VERIFY.replace("PASS check 3\n", "")
        problems = workloads.check_output("verify", 1, text, REFERENCES)
        self.assertEqual(problems, ["exit code 1", "25 PASS lines, expected 26"])

    def test_non_numeric_row_fails(self):
        problems = workloads.check_output("wide", 0, "Traceback ...\n", REFERENCES)
        self.assertTrue(problems)


def run_sample(kind: str, spans_file: Path, *cli_argv: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "sample.py"), kind, str(ROOT), str(spans_file),
         *cli_argv],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class SampleTest(unittest.TestCase):
    def test_plain_sample_is_probed(self):
        record = run_sample("plain", Path("-"), "count", "--k", "3", "--terms", "8")
        self.assertEqual(record["stdout"], "1 1 1 2 5 15 58 275\n")
        self.assertEqual(record["exit_code"], 0)
        self.assertGreaterEqual(record["probes"], 5)
        self.assertGreater(record["probe_s"], 0)
        self.assertGreater(record["wall_s"], 0)
        self.assertNotIn("layers", record)

    def test_count_reports_every_layer_metric(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = {m["name"] for m in declared["per_layer"]} - {"trace.overhead_s"}
        with tempfile.TemporaryDirectory() as tmp:
            spans_file = Path(tmp) / "spans.tsv"
            record = run_sample("traced", spans_file, "count", "--k", "3", "--terms", "8")
            spans = [line.split("\t") for line in spans_file.read_text().splitlines()]
        layers = record["layers"]
        self.assertEqual(set(layers), names)
        self.assertEqual(record["stdout"], "1 1 1 2 5 15 58 275\n")
        self.assertEqual(layers["engine.count_ktrees.calls"], 1)
        self.assertEqual(layers["engine.solve_system.calls"], 1)
        self.assertEqual(layers["engine.cycle_types"], 3)
        self.assertEqual(layers["engine.solve_degrees"], 7)
        self.assertEqual(layers["engine.coeffs_used_ratio"], 1.0)
        self.assertEqual(layers["oracle.codes"], 0)
        self.assertGreater(layers["series.mul.calls"], 0)
        self.assertGreater(layers["engine.aggregate_s"], 0)
        self.assertNotIn("probe_s", record)
        self.assertEqual(spans[0], ["index", "name", "start_ns", "end_ns", "parent"])
        self.assertEqual(spans[1][1:2] + spans[1][4:], ["cli.main", "-1"])
        for index, _, start, end, parent in spans[1:]:
            self.assertLess(int(parent), int(index))
            self.assertLessEqual(int(start), int(end))

    def test_verify_oracle_counts_codes(self):
        with tempfile.TemporaryDirectory() as tmp:
            record = run_sample("traced", Path(tmp) / "spans.tsv", "verify", "--mode", "oracle")
        layers = record["layers"]
        # Coding trees with n = 0..6 black vertices for k = 1, 2, 3.
        self.assertEqual(layers["oracle.codes"], 1592)
        self.assertGreater(layers["oracle.orbit_count.s"], 0)
        self.assertGreater(layers["oracle.fixed_count.s"], 0)
        self.assertEqual(layers["engine.coeffs_used_ratio"], 1.0)


if __name__ == "__main__":
    unittest.main()
