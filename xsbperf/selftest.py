#!/usr/bin/env python3
"""Self-test of the benchmark.

Run from the repository root:
  python3 xsbperf/selftest.py

For every workload in BENCHMARK.json it runs the runner at a tiny size with
a fixed operation count and checks that
  * every end-to-end metric (untraced run) and every per-layer metric
    (traced run) is printed with the unit BENCHMARK.json gives it, and that
    every operation was correct;
  * the single-session counters (engine.*, tabling.*, term.*) of two traced
    runs with the same seed are identical (serve_mixed excepted: its
    counters depend on thread scheduling).
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMED_UNITS = {"s", "ms", "us", "ns", "%", "1/s"}
COUNTER_PREFIXES = ("engine.", "tabling.", "term.")


def run(workload, trace, seed=7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "30", "--trace",
           str(trace), "--tiny", "--ops", "300"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                         timeout=600).stdout
    return json.loads(out.strip().splitlines()[-1])


def check_metrics(result, expected, label, errors):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        errors.append(f"{label}: {result['failed']} of "
                      f"{result['attempted']} operations failed")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in expected):
        errors.append(f"{label}: metric names differ from BENCHMARK.json")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            errors.append(f"{label}: {m['name']} missing or wrong unit {got}")


def main():
    os.chdir(ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        before = len(errors)
        check_metrics(run(workload, 0), bench["end_to_end"],
                      f"{workload} untraced", errors)
        first = run(workload, 1)
        check_metrics(first, bench["per_layer"], f"{workload} traced", errors)
        if workload != "serve_mixed":
            second = run(workload, 1)
            for m in bench["per_layer"]:
                name = m["name"]
                if (not name.startswith(COUNTER_PREFIXES)
                        or m["unit"] in TIMED_UNITS):
                    continue
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                if a != b:
                    errors.append(f"{workload}: {name} {a} != {b} on one seed")
        print(f"{workload}: {'ok' if len(errors) == before else 'FAILED'}",
              file=sys.stderr)
    for e in errors:
        print("FAIL", e, file=sys.stderr)
    print("selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
