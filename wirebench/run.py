#!/usr/bin/env python3
"""Builds the petald wire benchmark from source and runs one workload.

    python3 wirebench/run.py --workload edit-type --seed 1 --seconds 30 --trace 0
    python3 wirebench/run.py --test

The build goes to .bench_build/ at the root of the checkout (configured on
first use, brought up to date on every run). Build output goes to stderr;
the client's report goes to stdout and its last line is the result object.
See wirebench/README.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ["complete-miss", "complete-hit", "edit-type", "workspace-overlay"]


def build(targets):
    """Configures (once) and builds the given targets; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "wirebench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target"]
                 + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("wirebench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--test", action="store_true",
                   help="build and run the benchmark's unit tests")
    a = p.parse_args()

    if a.test:
        if not build(["wirebench_test"]):
            return 2
        return subprocess.run([str(BUILD / "wirebench_test")]).returncode
    if a.workload is None or a.seed is None:
        p.error("--workload and --seed are required")
    if not build(["wirebench"]):
        return 2
    work = BUILD / "wirebench-work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "wirebench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--work-dir", str(work)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out.stdout)
    last = out.stdout.rstrip("\n").rsplit("\n", 1)[-1]
    if out.returncode == 0 and not last.startswith('{"correct"'):
        print("wirebench: the client printed no result", file=sys.stderr)
        return 2
    return out.returncode


if __name__ == "__main__":
    sys.exit(main())
