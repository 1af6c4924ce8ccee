#!/usr/bin/env python3
"""The benchmark's own test: a tiny-scale run of all four workloads.

Run from the repository root:

    python3 perfbench/test_perfbench.py

It builds perfbench through run.py, then checks that every metric named
in BENCHMARK.json is printed with its unit, that the pinned digests apply
and match, that the threaded grid equals the serial one, that the traced
run's spans nest, and that the command line is strict.
"""

import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

SCALE = "0.02"  # Digests are pinned at this scale too.
WORKLOADS = ("grid", "mutator", "section7", "replay")
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


class PerfBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(run.build_dir())
        cls.tmp = tempfile.TemporaryDirectory()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def bench(self, *args, check=True):
        cmd = [str(self.binary), "--workdir", self.tmp.name + "/work",
               "--seconds", "1", "--scale", SCALE, *args]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170)
        if check:
            self.assertEqual(proc.returncode, 0, proc.stderr)
        return proc

    def result(self, proc):
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"], proc.stderr)
        self.assertEqual(out["failed"], 0)
        self.assertGreater(out["attempted"], 0)
        return out

    def digests(self, proc):
        return dict(re.findall(r"^unit (\S+) refs=\d+ digest=(\w+)",
                               proc.stdout, re.M))

    def check_metrics(self, out, specs):
        want = {m["name"]: m["unit"] for m in specs}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        self.assertEqual(got, want)
        for name, v in out["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)

    def test_end_to_end_metrics_and_pins(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = self.bench("--workload", w, "--seed", "0",
                                  "--trace", "0")
                out = self.result(proc)
                self.check_metrics(out, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(out["metrics"][m["name"]]["value"], 0)
                pinned = int(re.search(r"pinned_checks=(\d+)", proc.stdout)[1])
                self.assertGreater(pinned, 0, "no pinned digest applied")

    def test_threaded_grid_equals_serial(self):
        serial = self.bench("--workload", "grid", "--seed", "3", "--trace", "0",
                            "--threads", "0")
        threaded = self.bench("--workload", "grid", "--seed", "3",
                              "--trace", "0", "--threads", "2")
        self.result(serial)
        self.result(threaded)
        self.assertEqual(len(self.digests(serial)), 5)
        self.assertEqual(self.digests(serial), self.digests(threaded))

    def test_traced_metrics_and_spans(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                spans_path = Path(self.tmp.name) / f"spans-{w}.json"
                proc = self.bench("--workload", w, "--seed", "0",
                                  "--trace", "1", "--spans", str(spans_path))
                self.check_metrics(self.result(proc), SPEC["per_layer"])
                self.check_spans(json.loads(spans_path.read_text())["spans"], w)

    def check_spans(self, spans, workload):
        units = {}
        for s in spans:
            self.assertLessEqual(s["start_ns"], s["end_ns"], s)
            if s["parent"] < 0:
                self.assertTrue(s["name"].startswith("unit:"), s)
                self.assertNotIn(s["unit"], units.values(), s)
                units[s["name"][len("unit:"):]] = s["unit"]
                continue
            parent = spans[s["parent"]]
            self.assertLess(s["parent"], s["id"])
            self.assertLessEqual(parent["start_ns"], s["start_ns"], s)
            self.assertLessEqual(s["end_ns"], parent["end_ns"], s)
            self.assertEqual(s["unit"], parent["unit"], s)
        programs = ["lp", "nbody"] if workload == "replay" else \
            ["orbit", "imps", "lp", "nbody", "gambit"]
        self.assertEqual(sorted(units), sorted(programs))

    def test_strict_command_line(self):
        for args in (["--workload", "grid", "--seed"],
                     ["--workload", "grid", "--seed", "--trace", "0"],
                     ["--workload", "grid", "--seed="],
                     ["--workload", "grid", "--trace", "2"],
                     ["--workload", "grid", "--seed", "x1"],
                     ["--workload", "grid", "--batch"],
                     ["--workload", "nope"],
                     ["--workload", "grid", "--threads", "3"],
                     ["--workload", "grid", "stray"]):
            with self.subTest(args=args):
                proc = self.bench(*args, check=False)
                self.assertEqual(proc.returncode, 2, proc.stdout)
                self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
