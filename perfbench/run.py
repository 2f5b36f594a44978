#!/usr/bin/env python3
"""Build and run the repository benchmark (described in BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures perfbench/ (whose CMake file
pulls in the repository's own build of the QuMA library), builds the
quma_perfbench program into $CARGO_TARGET_DIR (default .bench_build),
runs it, checks the shape of its result line and prints that line as
the last line of standard output. Build logs and progress go to
standard error. Exits non-zero without printing a result when the
source tree is missing, the build fails or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# Seconds the measured run may take once quma_perfbench is built.
RUN_LIMIT_S = 170


def build(build_dir):
    """Configure once, then (re)build quma_perfbench; True on success."""
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "--target", "quma_perfbench",
            "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def valid_result(line):
    """quma_perfbench's last stdout line, parsed, if it has the agreed shape."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return None
    if not isinstance(result["correct"], bool):
        return None
    if not all(isinstance(result[k], int) for k in ("attempted", "failed")):
        return None
    if result["attempted"] < 1:
        return None
    for metric in result["metrics"].values():
        if sorted(metric) != ["unit", "value"]:
            return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(build_dir, "quma_perfbench")
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    result = valid_result(lines[-1]) if lines else None
    if run.returncode != 0 or result is None:
        print("perfbench: run failed (exit %d)" % run.returncode,
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
