#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Builds the harness through run.py, then checks that the metric catalogue
matches BENCHMARK.json (names, units, directions, naming rules), that the
in-process checker tests pass (including a mismatched result fed to the
spot-check), that bad arguments are refused, and that the seed argument
alone decides the inputs: two runs with one seed report identical exact
work counts, a different seed different ones.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own entry point)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
EXE = None


def harness(*args):
    return subprocess.run([str(EXE), *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


def workload_run(seed):
    done = harness("--workload", "fixed-graph-sweep", "--seed", str(seed),
                  "--seconds", "1", "--trace", "0",
                  "--work-dir", str(run.build_dir() / "selftest-work"),
                  "--spec-dir", str(HERE / "specs"))
    lines = done.stdout.strip().splitlines()
    exact = [line for line in lines if line.startswith("exact:")]
    return done.returncode, exact, json.loads(lines[-1])


class Catalogue(unittest.TestCase):
    def test_matches_benchmark_json(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        listed = [json.loads(line) for line in
                  harness("--list-metrics").stdout.splitlines()]
        for per_layer, key in ((False, "end_to_end"), (True, "per_layer")):
            ours = [(m["name"], m["unit"], m["better"]) for m in listed
                    if m["per_layer"] == per_layer]
            theirs = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
            self.assertEqual(ours, theirs, key)

    def test_names_and_units_follow_the_rules(self):
        names = set()
        for line in harness("--list-metrics").stdout.splitlines():
            metric = json.loads(line)
            self.assertRegex(metric["name"], NAME)
            self.assertNotIn("/", metric["name"])
            self.assertRegex(metric["unit"], UNIT)
            self.assertNotIn(metric["name"], names)
            names.add(metric["name"])
        self.assertIn("setup_s", names)


class Checkers(unittest.TestCase):
    def test_in_process_checks_pass(self):
        done = harness("--selftest")
        self.assertEqual(done.returncode, 0, done.stdout)
        self.assertIn("a mismatched spot-check counts every item as failed",
                      done.stdout)

    def test_bad_arguments_are_refused(self):
        for args in (["--workload", "fixed-graph-sweep", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", "nope", "--seed", "1", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", "fixed-graph-sweep", "--seed", "1",
                      "--seconds", "1", "--trace", "2"]):
            self.assertEqual(harness(*args).returncode, 2, args)


class Seed(unittest.TestCase):
    def test_seed_decides_the_inputs(self):
        code_a, exact_a, result_a = workload_run(5)
        code_b, exact_b, _ = workload_run(5)
        code_c, exact_c, _ = workload_run(6)
        self.assertEqual((code_a, code_b, code_c), (0, 0, 0))
        self.assertEqual(len(exact_a), 1)
        self.assertEqual(exact_a, exact_b)
        self.assertNotEqual(exact_a, exact_c)
        self.assertEqual(set(result_a),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result_a["correct"])
        self.assertEqual(result_a["failed"], 0)
        self.assertGreaterEqual(result_a["attempted"], 1)
        self.assertEqual(list(result_a["metrics"]),
                         ["trials_per_s", "setup_s", "peak_rss_mb"])
        for metric in result_a["metrics"].values():
            self.assertGreater(metric["value"], 0)


if __name__ == "__main__":
    EXE = run.build(run.build_dir())
    if EXE is None:
        sys.exit(1)
    unittest.main()
