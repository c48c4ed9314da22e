#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's spread.

    python3 wirebench/steadiness.py --seeds 1-10 [--workloads a,b] [--seconds 10]

For every workload and end-to-end metric it prints the median of the runs
and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A metric's
bound in BENCHMARK.json must stay above its spread; README.md records the
spreads measured when the bounds were set.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, default=0)
    a = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}

    for workload in a.workloads.split(","):
        runs = []
        for seed in seeds(a.seeds):
            start = time.monotonic()
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(a.seconds),
                 "--trace", str(a.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect run")
            runs.append(result["metrics"])
            took = time.monotonic() - start
            print(f"{workload} seed {seed} ({took:.0f} s): " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        print(f"{workload}: metric, median, spread (IQR/median), bound")
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            med = statistics.median(values)
            spread = float("nan")
            if len(values) > 1 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
            print(f"  {name:26s} {med:12.4g} {spread:8.3f} "
                  f"{bounds.get(name, '-')}", flush=True)


if __name__ == "__main__":
    main()
