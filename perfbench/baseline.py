#!/usr/bin/env python3
"""Measure a baseline: ten runs per workload, each with its own seed.

    python3 perfbench/baseline.py [--out FILE]

Runs `perfbench/run.py` once per workload of BENCHMARK.json and seed
1..10 with the run length from BENCHMARK.json, then prints, per workload
and end-to-end metric, the median, the quartiles (statistics.quantiles, n=4), and the spread
(Q3 - Q1) / median beside the metric's bound. With --out it writes the
same table as JSON. Exits 1 when a run fails or reports incorrect
results, or when a spread exceeds a third of its bound. setup_s is
excepted: its spread is not held to its bound, only its median is
compared between baselines.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args()

    table = {}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        values = {}
        for seed in range(1, RUNS + 1):
            result = run(workload, seed, spec["run_seconds"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr, flush=True)
            ok = ok and result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for metric in spec["end_to_end"]:
            v = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            rows[metric["name"]] = {"unit": metric["unit"], "median": median, "q1": q1,
                                    "q3": q3, "spread": spread, "runs": len(v)}
            steady = metric["name"] == "setup_s" or spread <= metric["bound"] / 3
            ok = ok and steady
            print(f"{workload:16s} {metric['name']:30s} median {median:12.6g} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} "
                  f"bound {metric['bound']:.2f}{'' if steady else '  NOT STEADY'}",
                  flush=True)
        table[workload] = rows

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"measured": datetime.date.today().isoformat(),
                       "host": f"{platform.machine()}, {os.cpu_count()} CPUs",
                       "run_seconds": spec["run_seconds"],
                       "seeds": f"1..{RUNS}",
                       "workloads": table}, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
