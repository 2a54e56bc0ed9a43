#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--seconds S]
                                [workload ...]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) for
each workload (default: all), from the root of the checkout, and prints per
metric the median, the quartiles and the interquartile distance as a share
of the median — the spread BENCHMARK.json's bounds are judged against.
Exits 1 when a run fails or reports correct=false.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    status = 0
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED (exit "
                      f"{done.returncode})", flush=True)
                status = 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        for name, sample in values.items():
            if len(sample) < 2:
                continue
            q1, med, q3 = statistics.quantiles(sample, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            print(f"  {workload:18s} {name:12s} median {med:.6g}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
                  + (f"  (bound {bound}, bound/3 {bound / 3:.4f})"
                     if bound else ""), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
