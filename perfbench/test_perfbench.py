#!/usr/bin/env python3
"""The benchmark's own tests: short smoke runs of every workload.

    python3 perfbench/test_perfbench.py

Checks that each workload prints every metric BENCHMARK.json names, with
the unit declared there and a numeric value: the end-to-end ones in the
untraced run and the per-layer ones in the traced run; that
a forced output mismatch is counted as a failed operation; and that the
benchmark refuses to run, printing no result, without the library sources.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]

WORKLOADS = ("serve_paced", "serve_saturate", "attack_point")


def run(*args, cwd=ROOT):
    proc = subprocess.run(RUN + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=600)
    return proc


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchSmoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.units = {m["name"]: m["unit"]
                     for m in cls.spec["end_to_end"] + cls.spec["per_layer"]}

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]), WORKLOADS)

    def check(self, workload, trace):
        section = self.spec["per_layer" if trace else "end_to_end"]
        res = result_of(run("--workload", workload, "--seed", "3", "--seconds", "2",
                            "--trace", str(trace), "--smoke"))
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], res)
        self.assertGreaterEqual(res["attempted"], 1)
        if workload == "serve_paced":
            # A window past its 50 ms deadline is a failed operation; on a
            # loaded host a few do miss, so only a majority is required.
            self.assertLess(res["failed"], res["attempted"] / 2, res)
        else:
            self.assertEqual(res["failed"], 0, res)
        self.assertEqual(list(res["metrics"]), [m["name"] for m in section])
        for name, m in res["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"}, name)
            self.assertEqual(m["unit"], self.units[name], name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_serve_paced(self):
        self.check("serve_paced", 0)
        self.check("serve_paced", 1)

    def test_serve_saturate(self):
        self.check("serve_saturate", 0)
        self.check("serve_saturate", 1)

    def test_attack_point(self):
        self.check("attack_point", 0)
        self.check("attack_point", 1)

    def test_forced_mismatch_is_a_failure(self):
        for workload in ("serve_saturate", "attack_point"):
            res = result_of(run("--workload", workload, "--seed", "3", "--seconds",
                                "2", "--trace", "0", "--smoke", "--force-mismatch"))
            self.assertFalse(res["correct"], workload)
            self.assertGreaterEqual(res["failed"], 1, workload)

    def test_bad_arguments_print_no_result(self):
        proc = run("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("--workload", "serve_paced", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())
