#!/usr/bin/env python3
"""The benchmark's own tests, on the smoke size of every workload.

    python3 perfbench/test_smoke.py

From the repository root. Builds the driver like run.py does, runs all
four workloads untraced and traced at --size smoke (seconds, not
minutes), and checks that:

  * BENCHMARK.json keeps its required shape: exact keys, name and unit
    formats, bounds of at most 0.25 and setup_s with the largest;
  * every run exits 0, reports correct outputs, and prints exactly the
    metric names and units BENCHMARK.json declares;
  * the driver's SLO and scenarios agree with perfbench/meta.json;
  * the known paged prefix-caching livelock on shared_prefix ends at
    its horizon and counts as requests not served, instead of stalling.
"""

import json
import os
import re
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(path):
    with open(path) as f:
        return json.load(f)


SPEC = load(os.path.join(ROOT, "BENCHMARK.json"))
META = load(os.path.join(HERE, "meta.json"))
_RUNS = {}


def run(workload, trace):
    """One smoke run through run.py; memoized across tests."""
    key = (workload, trace)
    if key not in _RUNS:
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", "1", "--seconds", "1",
             "--trace", str(trace), "--size", "smoke"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
        _RUNS[key] = (done, time.monotonic() - start)
    return _RUNS[key]


def result(workload, trace):
    done, _ = run(workload, trace)
    assert done.returncode == 0, done.stdout[-2000:]
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


class BenchmarkJson(unittest.TestCase):
    def test_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= len(SPEC["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(SPEC["per_layer"]) <= 128)
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))
        self.assertEqual(set(META["workloads"]), set(
            w["name"] for w in SPEC["workloads"]))


class SmokeRuns(unittest.TestCase):
    def check_names(self, workload, trace):
        res = result(workload, trace)
        self.assertTrue(res["correct"], workload)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        declared = {m["name"]: m["unit"] for m in
                    SPEC["per_layer" if trace else "end_to_end"]}
        printed = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(printed, declared)

    def test_untraced_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_names(w["name"], 0)

    def test_traced_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_names(w["name"], 1)

    def test_driver_agrees_with_meta(self):
        slo = META["slo"]
        for w in SPEC["workloads"]:
            name = w["name"]
            done, _ = run(name, 0)
            lines = done.stdout.split("\n")
            self.assertIn("slo ttft_s=%g tbt_s=%g capacity_attainment=%g"
                          % (slo["ttft_s"], slo["tbt_s"],
                             slo["capacity_attainment"]), lines)
            scenarios = [l.split()[1:3] for l in lines
                         if l.startswith("scenario ")]
            meta = META["workloads"][name]
            self.assertEqual(scenarios, [
                [s["label"], "rate_qps=%g" % s["rate_qps"]]
                for s in meta["scenarios"]])
            named = [l.split()[1] for l in lines
                     if l.startswith("scenario ") and l.endswith(" named")]
            self.assertEqual(named, [meta["named"]])

    def test_livelock_counts_as_failures(self):
        res = result("shared_prefix", 0)
        done, seconds = run("shared_prefix", 0)
        self.assertLess(seconds, 120)
        self.assertLess(res["metrics"]["requests_served_share"]["value"], 1.0)
        self.assertIn("[livelock_repro paged]", done.stdout)
        self.assertIn("unfinished at", done.stdout)


if __name__ == "__main__":
    unittest.main()
