#!/usr/bin/env python3
"""Build and run the end-to-end characterization benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hunt --seed 1 --seconds 30 --trace 0

builds the perfbench program (incrementally) from the sources in src/ and
perfbench/, runs one measurement and passes its output through; the
last stdout line is the JSON result. The build directory is
$CARGO_TARGET_DIR (default .bench_build) under the working directory.

    python3 perfbench/run.py --smoke [--enable-slow] [--seconds S]

is the benchmark's own smoke test (it needs GTest): it builds and runs
the identity tests, then every workload in the quick tier, untraced and
traced, and checks each result line against BENCHMARK.json. --enable-slow adds one run of
every workload in the full tier.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOBS = str(min(4, os.cpu_count() or 1))


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step; its output goes to stderr only on failure."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"run.py: build step failed: {' '.join(cmd)}")


def build(build_dir, targets):
    run_quiet(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    for target in targets:
        run_quiet(["cmake", "--build", build_dir, "-j", JOBS, "--target", target])
    return [os.path.join(build_dir, target) for target in targets]


def run_child(cmd, capture=False):
    """Runs a child to completion; kills and reaps it if we are interrupted."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                            text=True)
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def measure(binary, scratch_parent, workload, seed, seconds, trace, tier, capture=False):
    scratch = tempfile.mkdtemp(prefix="perfbench-", dir=scratch_parent)
    try:
        return run_child([binary, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace),
                          "--tier", tier, "--scratch", scratch], capture)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def check_result(stdout, spec, trace):
    """Validates a result line against BENCHMARK.json; returns problems."""
    result = json.loads(stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in listed}:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in listed})}")
    for m in listed:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        if not trace and not got.get("value"):
            problems.append(f"{m['name']}: end-to-end metric is 0")
    return problems


def smoke(build_dir, enable_slow, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    selftest, binary = build(os.path.join(build_dir, "perfbench"),
                             ["perfbench_selftest", "perfbench"])
    code, _ = run_child([selftest])
    if code != 0:
        log("identity tests failed")
        return 1
    tiers = [("quick", 2)] + ([("full", seconds)] if enable_slow else [])
    failures = 0
    for tier, tier_seconds in tiers:
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace in (0, 1):
                code, out = measure(binary, build_dir, workload, 1, tier_seconds,
                                    trace, tier, capture=True)
                problems = [f"exit code {code}"] if code != 0 else check_result(out, spec, trace)
                status = "ok" if not problems else "FAIL: " + "; ".join(problems)
                log(f"{tier} {workload} trace={trace}: {status}")
                failures += bool(problems)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--enable-slow", action="store_true")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    if args.smoke:
        return smoke(build_dir, args.enable_slow, args.seconds)
    if not args.workload:
        parser.error("--workload is required")
    (binary,) = build(os.path.join(build_dir, "perfbench"), ["perfbench"])
    code, _ = measure(binary, build_dir, args.workload, args.seed, args.seconds,
                      args.trace, "full")
    return code


if __name__ == "__main__":
    sys.exit(main())
