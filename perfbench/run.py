#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark executable from this checkout and runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload churn --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload warm --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py                  # churn, warm and service in turn

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json, measured through Simulate() with tracing off. With --trace 1 it
carries the per-layer metrics from the decorated, serial rebuild of the same
fleet. Every earlier line is human-readable context (provenance, failures,
fidelity). The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) inside the checkout.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("churn", "warm", "service")
# Whole-process set-up is a few milliseconds; the median of this many spawns
# per run keeps one slow fork from moving setup_s.
SETUP_SPAWNS = 15
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if os.path.isabs(target) and not target.startswith(ROOT + os.sep):
        target = ".bench_build"  # Stay inside the checkout.
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds the executable; returns its path or exits."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found under " + ROOT)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"]]
    for step in steps:
        # Build chatter goes to stderr: stdout is reserved for results.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def source_revision():
    """The git commit when the checkout is a repository, else a digest of src/."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0:
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def measure_setup(exe, workload, seed, extra):
    """setup_s: process start to the first Simulate call, median of spawns."""
    samples = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        proc = subprocess.run([exe, "setup", "--workload", workload, "--seed", str(seed)]
                              + extra, stdout=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.exit("perfbench: set-up run failed")
    return statistics.median(samples)


def run_workload(exe, workload, seed, seconds, trace, requests=0):
    """Runs one measurement; prints context lines and returns the result dict."""
    extra = ["--requests", str(requests)] if requests else []
    mode = "trace" if trace else "run"
    setup_s = None if trace else measure_setup(exe, workload, seed, extra)
    cmd = [exe, mode, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: benchmark executable exited with %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    failed_frac = result["failed"] / result["attempted"]
    print("failed_frac=%r workload=%s" % (failed_frac, workload))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=0,
                        help="requests per function (0 = the workload's own size)")
    args = parser.parse_args()

    exe = build()
    print("provenance: source=%s nproc=%d" % (source_revision(), os.cpu_count() or 0))
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for workload in workloads:
        results[workload] = run_workload(exe, workload, args.seed, args.seconds,
                                         args.trace, args.requests)
    sys.stdout.flush()
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        for workload, result in results.items():
            print("%s: %s" % (workload, json.dumps(result)))
        print(json.dumps(results))


if __name__ == "__main__":
    main()
