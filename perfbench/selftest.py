#!/usr/bin/env python3
"""Self-tests of the repository benchmark, at tiny sizes (seconds, once built).

Usage (from the repository root, after or without a prior build):

    python3 perfbench/selftest.py

Checks:
  * every timing decorator forwards unchanged: the decorated rebuild of each
    workload reproduces Simulate()'s outcome with no decorator, each one alone,
    and all of them (`perfbench selftest`);
  * a deliberately failing run reports failed_frac = 1 (same mode);
  * every metric BENCHMARK.json names is printed, with its unit, by both the
    untraced (--trace 0) and the traced (--trace 1) runs, and nothing else is.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402  (the benchmark entry point, same directory)


def expected_units(section):
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def check_metrics(result, section):
    expected = expected_units(section)
    printed = {name: value["unit"] for name, value in result["metrics"].items()}
    problems = ["missing %s" % name for name in expected if name not in printed]
    problems += ["unlisted %s" % name for name in printed if name not in expected]
    problems += ["%s unit %s != %s" % (name, printed[name], unit)
                 for name, unit in expected.items()
                 if name in printed and printed[name] != unit]
    return problems


def main():
    exe = bench.build()
    failures = 0
    if subprocess.run([exe, "selftest"], timeout=bench.RUN_TIMEOUT_S).returncode:
        print("FAIL perfbench selftest mode")
        failures += 1
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = bench.run_workload(exe, "churn", seed=3, seconds=0, trace=trace,
                                    requests=24)
        problems = check_metrics(result, section)
        if not result["correct"]:
            problems.append("run not correct")
        print("%s --trace %d prints every %s metric%s" %
              ("FAIL" if problems else "ok  ", trace, section,
               (": " + "; ".join(problems)) if problems else ""))
        failures += bool(problems)
    print("perfbench selftest: %d failure(s)" % failures)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
