#!/usr/bin/env python3
"""End-to-end checks of the benchmark's output.

    python3 perfbench/tests/test_output.py     # about two minutes

Runs every workload untraced and traced through run.py with BENCHMARK.json's
arguments, one set-up and a one-second timed phase, and checks that the last
line parses as JSON with exactly the result keys, that every metric name
matches [A-Za-z0-9_.-]+ and appears in BENCHMARK.json's list for that mode,
that the answers checked out, and that the traced run wrote a trace holding
both the benchmark's and the program's spans.
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True  # keep the source tree clean

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
spec = importlib.util.spec_from_file_location("perfbench_run", HERE.parent / "run.py")
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class OutputTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build_dir = run.build_dir_of(ROOT)
        run.build(ROOT, cls.build_dir)
        with open(ROOT / "BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def run_bench(self, workload, trace):
        """run.py with BENCHMARK.json's arguments, one set-up, one second."""
        cmd = [sys.executable, "perfbench/run.py", *self.spec["command"][2:],
               "--setups", "1", "--workload", workload, "--seed", "5",
               "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        return proc.stdout.rstrip("\n").split("\n")[-1]

    def check(self, workload, trace):
        line = self.run_bench(workload, trace)
        result = json.loads(line)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        for name, metric in result["metrics"].items():
            self.assertTrue(NAME.fullmatch(name), name)
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertIsInstance(metric["value"], (int, float))
        listed = [m["name"] for m in self.spec["per_layer" if trace else "end_to_end"]]
        self.assertEqual(sorted(result["metrics"]), sorted(listed))
        # run.py's own validation accepts it too.
        run.check_result(line, listed)
        if trace:
            with open(self.build_dir / "traces" / f"{workload}-seed5.json") as f:
                events = json.load(f)["traceEvents"]
            names = {e["name"] for e in events}
            self.assertIn("bench.precompute", names)
            self.assertIn("serve.request", names)

    def test_hot_mem(self):
        self.check("hot-mem", 0)
        self.check("hot-mem", 1)

    def test_wire_tcp(self):
        self.check("wire-tcp", 0)
        self.check("wire-tcp", 1)

    def test_cold_disk(self):
        self.check("cold-disk", 0)
        self.check("cold-disk", 1)

    def test_outside_a_source_tree_fails_without_result(self):
        # A directory holding only the benchmark cannot build it.
        with tempfile.TemporaryDirectory(dir=self.build_dir) as tmp:
            shutil.copytree(HERE.parent, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", *self.spec["command"][2:],
                 "--workload", "hot-mem", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
