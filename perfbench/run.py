#!/usr/bin/env python3
"""bnest benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload dense-common --seed 1 --seconds 30 --trace 0

Run from the root of a bnest checkout; the program is imported from its
src/ directory.  Set-up time is measured in fresh interpreters, then the
workload runs in a fresh single-threaded child process (perfbench/loop.py),
a closed loop with one client.  With --trace 0 the result holds the
end-to-end metrics, with --trace 1 the per-layer metrics.  The last stdout
line is the JSON result; the lines before it are a readable report.  Spans
and per-request times are written to .perfbench_work/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 5
RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import bnest
try:
    from bnest._kernels import warmup
except ImportError:
    warmup = None
if warmup is not None:
    warmup()
print(time.perf_counter() - t0)
"""


# Keeps the second CPU busy for the whole run; see hold_second_cpu.
SPIN_CODE = """\
import os, sys, time
os.sched_setaffinity(0, {int(sys.argv[1])})
parent, end = os.getppid(), time.monotonic() + float(sys.argv[2])
while time.monotonic() < end and os.getppid() == parent:
    for _ in range(100000):
        pass
"""


def hold_second_cpu():
    """Pin this process, and so every child, to one CPU and keep a second
    CPU busy with a constant spin loop; returns the spinner or None.

    On a shared two-vCPU virtual machine the measured process otherwise
    switches between two speeds about 1.7x apart, for seconds to minutes at
    a time, as other tenants' work comes and goes on the core it shares;
    with both CPUs busy it stays at the slower speed most of the time.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return subprocess.Popen([sys.executable, "-c", SPIN_CODE, str(cpus[1]), str(RUN_LIMIT_S)])


def child_env(workdir: str) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]),
        PYTHONPYCACHEPREFIX=os.path.join(workdir, "pycache"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMBA_NUM_THREADS="1",
    )
    return env


def measure_setup(env: dict, deadline: float) -> float:
    """Median time to import bnest and warm its kernels in a fresh
    interpreter; one untimed start first fills the bytecode cache."""
    times = []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=max(1.0, deadline - time.monotonic()))
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 120:
        ap.error("--seconds must be in (0, 120]")

    if not os.path.isfile(os.path.join(ROOT, "src", "bnest", "__init__.py")):
        print(f"error: no bnest sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a bnest checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(os.path.join(workdir, "results"), exist_ok=True)
    env = child_env(workdir)

    spinner = hold_second_cpu()
    try:
        setup_s = None if args.trace else measure_setup(env, deadline)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "loop.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", workdir],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"error: the run did not finish within {RUN_LIMIT_S} s", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if spinner is not None:
            spinner.kill()
            spinner.wait()

    *report, last = proc.stdout.rstrip("\n").split("\n")
    child = json.loads(last)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(workdir, "results", name), "w", encoding="utf-8") as fh:
        json.dump(dict(child, setup_s=setup_s), fh)

    attempted, failed = child["attempted"], child["failed"]
    for line in report:
        print(line)
    if args.trace:
        metrics = {}
        for metric, (unit, _, moves) in PER_LAYER.items():
            value = child["per_layer"][metric]
            metrics[metric] = {"value": value, "unit": unit}
            shown = "absent" if value is None else f"{value:.6g} {unit}"
            print(f"{metric:32} {shown:>18}   [{moves}]")
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        for kind, runs in child["times"].items():
            # Failed requests count only when none passed; the run is then
            # reported incorrect anyway.
            ok = [t for t, passed in runs if passed] or [t for t, _ in runs]
            metrics[f"{kind}_s"] = {"value": statistics.median(ok), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": child["peak_rss_mb"], "unit": "MB"}
        for metric, m in metrics.items():
            print(f"{metric:12} {m['value']:12.6f} {m['unit']}")
        print(f"{'error_rate':12} {failed / attempted:12.6f} ratio  ({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
