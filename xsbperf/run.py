#!/usr/bin/env python3
"""Builds the benchmark runner from source and runs one workload.

Usage (from the repository root):
  python3 xsbperf/run.py --workload closure_cold --seed 1 --seconds 20 --trace 0

Every argument is passed to the runner binary unchanged; see
xsbperf/NOTES.md for the workloads and metrics. The build goes to
.bench_build/xsbperf under the current directory, and its output goes to
standard error so that the last line of standard output stays the runner's
JSON result. Exits non-zero, without a result, when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.getcwd(), ".bench_build", "xsbperf")
BINARY = os.path.join(BUILD_DIR, "xsb_perfbench")


def build():
    """Configures (once) and builds the runner; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # A half-written cache would make the next run skip configuring.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    step = ["cmake", "--build", BUILD_DIR, "--target", "xsb_perfbench",
            "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("xsbperf: build failed", file=sys.stderr)
        return 2
    trace_dir = os.path.join(os.getcwd(), ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    args = [BINARY, "--trace-dir", trace_dir] + sys.argv[1:]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
