#!/usr/bin/env python3
"""Compare a BENCH_perf_suite.json run against a committed baseline.

Direction-aware perf gate:

  bench_compare.py --baseline BENCH_perf_suite.json \\
                   --current  build/BENCH_perf_suite.json \\
                   --budget   0.10

For every metric present in the baseline, the relative regression is

    direction "higher":  (baseline - current) / baseline
    direction "lower":   (current - baseline) / baseline

and the run FAILS if any metric regresses by more than the budget.
Improvements never fail. The budget is not widened by noise: a row whose
spread_pct (the rep-to-rep median absolute deviation, in either run) exceeds
the budget fails as too noisy to gate, because a delta inside that noise can
be neither trusted nor ruled out. Metrics only in the current run are
reported as new; metrics only in the baseline fail the run (a silently
dropped metric is how a regression hides). A current run whose digests
diverged (determinism_ok) or whose service group-commit books did not
balance (books_balanced) fails regardless of its numbers.

Two files come from the same machine class only when their machine blocks
agree on every field in MACHINE_CLASS_FIELDS: hardware threads, CPU model,
compiler and build type. Across classes absolute comparison is meaningless;
the tool then only checks that every baseline metric still exists and that
the correctness flags hold, and says so loudly. This keeps a baseline from
one machine class from failing runners of another while still gating on
coverage and correctness.

A baseline should be the per-row median of several runs, not one run:

  bench_compare.py --median-of run1.json run2.json run3.json ... \\
                   > BENCH_perf_suite.json

Each merged row's spread_pct is the larger of the run-to-run median absolute
deviation of its values (as a percentage of their median) and the median of
the runs' own rep-to-rep spreads, so a row that drifts between runs on the
baseline host is flagged too noisy to gate there.

`--self-test` proves the gate actually trips: it synthesizes a 20% regression
of every metric from the baseline and asserts the comparison fails, then
marks one row of an otherwise identical run as noisier than the budget and
asserts that fails too, then checks that the same regression from another
machine class is gated on coverage and correctness only, and finally
re-compares the baseline, spreads zeroed, against itself and asserts it
passes.
"""

import argparse
import copy
import json
import statistics
import sys

MACHINE_CLASS_FIELDS = ("hardware_threads", "cpu_model", "compiler", "build_type")


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("benchmark") != "perf_suite":
        raise SystemExit(f"{path}: not a perf_suite JSON (benchmark={doc.get('benchmark')!r})")
    return doc


def metric_map(doc):
    return {m["name"]: m for m in doc.get("metrics", [])}


def machine_class_differences(base_machine, cur_machine):
    """Returns 'field: base vs current' for every machine-class field that differs."""
    return [
        f"{field}: {base_machine.get(field, '?')!r} vs {cur_machine.get(field, '?')!r}"
        for field in MACHINE_CLASS_FIELDS
        if base_machine.get(field) != cur_machine.get(field)
    ]


def median_of(paths):
    """Merges several runs of one build on one machine into a baseline."""
    runs = [load(path) for path in paths]
    first = runs[0]
    for path, run in zip(paths[1:], runs[1:]):
        differences = machine_class_differences(first.get("machine", {}), run.get("machine", {}))
        if run.get("machine", {}).get("git_commit") != first.get("machine", {}).get("git_commit"):
            differences.append("git_commit")
        if differences:
            raise SystemExit(f"{path}: not the same build and machine class as {paths[0]}: "
                             + "; ".join(differences))
    merged = copy.deepcopy(first)
    for flag in ("determinism_ok", "books_balanced"):
        merged[flag] = all(run.get(flag, True) for run in runs)
    merged["metrics"] = []
    for metric in first.get("metrics", []):
        rows = [metric_map(run).get(metric["name"]) for run in runs]
        if any(row is None for row in rows):
            raise SystemExit(f"metric '{metric['name']}' is missing from some runs")
        values = [float(row["value"]) for row in rows]
        median = statistics.median(values)
        run_to_run = statistics.median(abs(value - median) for value in values)
        rep_to_rep = statistics.median(float(row.get("spread_pct", 0)) for row in rows)
        row = dict(metric)
        row["value"] = round(median, 3)
        row["spread_pct"] = round(
            max(100.0 * run_to_run / median if median else 0.0, rep_to_rep), 2
        )
        merged["metrics"].append(row)
    return merged


def dump(doc):
    """Writes a perf_suite JSON in perf_suite's own layout: one metric per line."""
    lines = ["{"]
    for key, value in doc.items():
        if key == "metrics":
            continue
        lines.append(f"  {json.dumps(key)}: {json.dumps(value)},")
    rows = [f"    {json.dumps(metric)}" for metric in doc.get("metrics", [])]
    lines.append('  "metrics": [')
    lines.append(",\n".join(rows))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def compare(baseline, current, budget):
    """Returns (failures, report_lines, values_gated)."""
    failures = []
    lines = []

    for flag in ("determinism_ok", "books_balanced"):
        if not current.get(flag, True):
            failures.append(f"{flag} is false in the current run")

    base_metrics = metric_map(baseline)
    cur_metrics = metric_map(current)

    base_machine = baseline.get("machine", {})
    cur_machine = current.get("machine", {})
    differences = machine_class_differences(base_machine, cur_machine)
    same_machine_class = not differences
    if not same_machine_class:
        lines.append(
            "NOTE: baseline and current ran on different machine classes ("
            + "; ".join(differences)
            + ") -- absolute values are incomparable; gating on metric coverage, "
            "determinism_ok and books_balanced only."
        )

    for name, base in sorted(base_metrics.items()):
        cur = cur_metrics.get(name)
        if cur is None:
            failures.append(f"metric '{name}' present in baseline but missing from current run")
            continue
        base_value = float(base["value"])
        cur_value = float(cur["value"])
        direction = base.get("direction", "higher")
        if base_value == 0:
            lines.append(f"  {name}: baseline is 0, skipping ratio")
            continue
        if direction == "higher":
            regression = (base_value - cur_value) / abs(base_value)
        else:
            regression = (cur_value - base_value) / abs(base_value)
        noise = max(float(base.get("spread_pct", 0)), float(cur.get("spread_pct", 0))) / 100.0
        verdict = "ok"
        if noise > budget:
            verdict = "TOO NOISY"
        elif regression > budget:
            verdict = "REGRESSION"
        elif regression < -0.005:
            verdict = "improved"
        lines.append(
            f"  {name}: {base_value:.3f} -> {cur_value:.3f} "
            f"({-regression * 100.0:+.1f}%, spread {noise * 100.0:.1f}%) {verdict}"
        )
        if not same_machine_class:
            continue
        if noise > budget:
            failures.append(
                f"metric '{name}' is too noisy to gate: spread {noise * 100.0:.1f}% "
                f"exceeds the {budget * 100.0:.0f}% budget"
            )
        elif regression > budget:
            failures.append(
                f"metric '{name}' regressed {regression * 100.0:.1f}% "
                f"(budget {budget * 100.0:.0f}%)"
            )

    for name in sorted(set(cur_metrics) - set(base_metrics)):
        lines.append(f"  {name}: new metric (not in baseline), not gated")

    return failures, lines, same_machine_class


def self_test(baseline_path, budget):
    baseline = load(baseline_path)

    # A 20% uniform slowdown must trip a 10% gate.
    degraded = copy.deepcopy(baseline)
    for metric in degraded.get("metrics", []):
        if metric.get("direction", "higher") == "higher":
            metric["value"] = float(metric["value"]) * 0.80
        else:
            metric["value"] = float(metric["value"]) * 1.25
    failures, _, _ = compare(baseline, degraded, budget)
    if not failures:
        print("self-test FAILED: a synthetic 20% regression passed the gate", file=sys.stderr)
        return 1

    # A run with unchanged values but one row noisier than the budget must
    # fail: noise is a reason to distrust a row, never to widen its allowance.
    noisy = copy.deepcopy(baseline)
    noisy_metric = noisy["metrics"][0]
    noisy_metric["spread_pct"] = budget * 100.0 * 2.0
    noisy_failures, _, _ = compare(baseline, noisy, budget)
    if not any("too noisy" in failure for failure in noisy_failures):
        print(
            f"self-test FAILED: row '{noisy_metric['name']}' with spread "
            f"{noisy_metric['spread_pct']:.0f}% passed the {budget * 100.0:.0f}% gate",
            file=sys.stderr,
        )
        return 1

    # The same regression from another machine class is not comparable: it
    # passes on coverage alone, unless a correctness flag is false.
    foreign = copy.deepcopy(degraded)
    foreign.setdefault("machine", {})["cpu_model"] = "another CPU model"
    foreign_failures, _, _ = compare(baseline, foreign, budget)
    if foreign_failures:
        print("self-test FAILED: a run from another machine class was gated on its values:",
              file=sys.stderr)
        for failure in foreign_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    foreign["determinism_ok"] = False
    if not compare(baseline, foreign, budget)[0]:
        print("self-test FAILED: determinism_ok false passed across machine classes",
              file=sys.stderr)
        return 1

    # Unchanged values must pass. The spreads are zeroed first: a committed
    # baseline may hold rows too noisy to gate on its own host, and the noise
    # verdict has its own check above.
    quiet = copy.deepcopy(baseline)
    for metric in quiet.get("metrics", []):
        metric["spread_pct"] = 0.0
    identical_failures, _, _ = compare(quiet, copy.deepcopy(quiet), budget)
    if identical_failures:
        print("self-test FAILED: a baseline compared against itself did not pass:", file=sys.stderr)
        for failure in identical_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1

    print(
        f"self-test OK: synthetic 20% regression trips the {budget * 100.0:.0f}% gate "
        f"({len(failures)} metrics flagged); a row noisier than the budget fails; "
        f"another machine class is gated on coverage and correctness only; "
        f"identity comparison passes"
    )
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="committed BENCH_perf_suite.json")
    parser.add_argument("--current", help="freshly produced BENCH_perf_suite.json")
    parser.add_argument(
        "--budget",
        type=float,
        default=0.10,
        help="allowed relative regression and spread per metric (default 0.10)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the gate trips on a synthetic 20%% regression of the baseline",
    )
    parser.add_argument(
        "--median-of",
        nargs="+",
        metavar="RUN",
        help="print a baseline merged from several runs: per-row median value",
    )
    args = parser.parse_args()

    if args.median_of:
        sys.stdout.write(dump(median_of(args.median_of)))
        return 0
    if not args.baseline:
        parser.error("--baseline is required unless --median-of")
    if args.self_test:
        return self_test(args.baseline, args.budget)

    if not args.current:
        parser.error("--current is required unless --self-test")

    baseline = load(args.baseline)
    current = load(args.current)
    failures, lines, values_gated = compare(baseline, current, args.budget)

    print(f"perf comparison (budget {args.budget * 100.0:.0f}% per metric):")
    for line in lines:
        print(line)
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    if values_gated:
        print("\nPASS: every metric within the budget, none too noisy to gate")
    else:
        print("\nPASS: every baseline metric present and the correctness flags hold "
              "(values not gated across machine classes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
