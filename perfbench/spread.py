#!/usr/bin/env python3
"""Every end-to-end metric of every workload, and their run-to-run spread:
for each metric, (Q3 - Q1) / median over runs with different seeds, next to
the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads dense-common --seeds 1-5

Runs the benchmark once per seed, one run at a time, from the checkout root.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds(args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"error_rate={result['failed'] / result['attempted']:.4f} "
                  f"({result['failed']} of {result['attempted']}) "
                  + " ".join(f"{k}={v['value']:.4f} {v['unit']}" for k, v in result["metrics"].items()),
                  flush=True)
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            print(f"{workload:22} {name:12} median {med:10.4f}  spread {(q3 - q1) / med:6.3f}"
                  f"  bound {bounds[name]:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
