"""One workload in one fresh process: the closed-loop request mix.

run.py starts this file with PYTHONPATH set to the checkout's src/.  It
writes the workload's instance, checks small instances of the same model
against the brute-force oracle, then sends one request at a time (count,
enumerate, sweep, count, ...) until the time is up, checking every output.
With --trace 1 every other round runs with the tracer installed.  The last
stdout line is one JSON object; the lines before it are a readable report.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict

import numpy

import workloads
from layers import PER_LAYER, TRACE_LAYERS
from spans import Tracer, self_times

from bnest import _kernels, cli, common_enum, conserved_enum, conserved_tree, core, oracle, pqtree

KINDS = ("count", "enumerate", "sweep")
SWEEP_BS = range(1, 17)
SMALL_INSTANCES = 6
SAMPLED_LINES = 32


class Requests:
    """The three request types against one instance file."""

    def __init__(self, workload: workloads.Workload, path: str):
        flags = ["--b", str(workload.b0)]
        if workload.mode == "conserved":
            flags += ["--mode", "conserved"]
        self.argv = {
            "count": ["count", *flags, path],
            "enumerate": ["enumerate", "--sort", "--original-labels", *flags, path],
        }
        self.path = path
        self.conserved = workload.mode == "conserved"

    def _cli(self, argv) -> str:
        config = cli.config_from_args(cli.build_parser().parse_args(argv))
        sink = io.StringIO()
        code = cli.run(config, out=sink)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"bnest {' '.join(argv)} exited with {code}")
        return sink.getvalue()

    def count(self) -> int:
        return int(self._cli(self.argv["count"]))

    def enumerate(self) -> str:
        return self._cli(self.argv["enumerate"])

    def sweep(self) -> list:
        """Parse, normalize and build once, then count for every b."""
        with open(self.path, "r", encoding="utf-8") as fh:
            raw = core.parse_permutations(fh.read())
        if self.conserved:
            pset = core.validate_conserved_frame(core.normalize(raw, signed=True))
            tree = conserved_tree.build_conserved_tree(pset)
            return [conserved_enum.count_b_nested_conserved(tree, b, 2) for b in SWEEP_BS]
        tree = pqtree.build_pqtree(core.normalize(raw))
        return [common_enum.count_b_nested_common(tree, b, 2) for b in SWEEP_BS]


def attempt(fn):
    """Run one request; (result or None on failure, wall seconds)."""
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, time.perf_counter() - t0
    return result, time.perf_counter() - t0


def _normalized(workload, perms):
    return core.normalize(perms, signed=True if workload.mode == "conserved" else None)


def _intervals(text: str, pset) -> list:
    """Output lines in original labels, mapped back to renumbered intervals."""
    out = []
    for line in text.splitlines():
        lo, hi = (pset.relabeling[int(tok)] for tok in line.split())
        out.append(core.Interval(lo, hi))
    return out


class Checker:
    """Checks the outputs of the measured requests on one instance."""

    def __init__(self, workload, perms, seed):
        self.pset = _normalized(workload, perms)
        self.member = core.is_conserved_interval if workload.mode == "conserved" else core.is_common_interval
        self.b0 = workload.b0
        self.rng = random.Random(f"bnest-bench-check:{workload.name}:{seed}")
        self.count = None
        self.digest = None
        self.lines = None

    def __call__(self, kind, result) -> str | None:
        """The first problem found with one request's result, or None."""
        if result is None:
            return "request failed"
        return getattr(self, "_" + kind)(result)

    def _count(self, value):
        if self.count is not None and value != self.count:
            return f"count {value} differs from earlier count {self.count}"
        self.count = value
        return None

    def _enumerate(self, text):
        lines = text.count("\n")
        self.lines = lines
        if self.count is not None and lines != self.count:
            return f"enumerate wrote {lines} lines, count said {self.count}"
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digest is not None and digest != self.digest:
            return "enumerate output differs from the first round"
        self.digest = digest
        for _ in range(min(SAMPLED_LINES, lines)):
            off = self.rng.randrange(len(text))
            line = text[text.rfind("\n", 0, off) + 1:text.find("\n", off)]
            try:
                (iv,) = _intervals(line, self.pset)
            except (ValueError, KeyError) as exc:
                return f"bad enumerate line {line!r}: {exc}"
            if iv.size() < 2 or not self.member(self.pset, iv):
                return f"enumerated {iv} is not a member of size >= 2"
        return None

    def _sweep(self, values):
        if len(values) != len(SWEEP_BS):
            return f"sweep gave {len(values)} values"
        if any(a > b for a, b in zip(values, values[1:])):
            return f"sweep decreases in b: {values}"
        if self.count is not None and values[self.b0 - 1] != self.count:
            return f"sweep at b={self.b0} is {values[self.b0 - 1]}, count said {self.count}"
        return None


def oracle_checks(workload, seed, tmp) -> tuple:
    """Every request type on n <= 12 instances of the model, against the
    brute-force oracle at every b.  Returns (attempted, failed)."""
    attempted = failed = 0
    for index in range(SMALL_INSTANCES):
        perms = workloads.instance(workload, seed, small=True, index=index)
        path = os.path.join(tmp, f"small-{index}.txt")
        workloads.write_instance(perms, path)
        pset = _normalized(workload, perms)
        family = oracle.all_conserved(pset) if workload.mode == "conserved" else oracle.all_common(pset)
        want = {b: {iv for iv in oracle.all_b_nested(family, b) if iv.size() >= 2} for b in SWEEP_BS}
        req = Requests(workload, path)
        got = {kind: attempt(getattr(req, kind))[0] for kind in KINDS}
        verdicts = {
            "count": got["count"] == len(want[workload.b0]),
            "enumerate": got["enumerate"] is not None
            and sorted(_intervals(got["enumerate"], pset)) == sorted(want[workload.b0]),
            "sweep": got["sweep"] == [len(want[b]) for b in SWEEP_BS],
        }
        for kind, ok in verdicts.items():
            attempted += 1
            if not ok:
                failed += 1
                print(f"oracle mismatch: {workload.name} small instance {index} {kind}: "
                      f"got {got[kind]!r}", file=sys.stderr)
    return attempted, failed


def per_layer_metrics(tracer, rounds, n) -> dict:
    """Every PER_LAYER metric, median over complete traced rounds; None
    when the traced function no longer exists."""
    own = self_times(tracer.spans)
    by_request = defaultdict(list)
    for span, t in zip(tracer.spans, own):
        by_request[span.request].append((span, t))
    traced = [r for r in rounds if r["traced"] and len(r["requests"]) == len(KINDS)]
    plain = [r for r in rounds if not r["traced"] and len(r["requests"]) == len(KINDS)]
    values = {}
    for metric, (unit, how, _) in PER_LAYER.items():
        op = how[0]
        if op == "round":
            values[metric] = statistics.median(r["wall"] for r in traced)
            continue
        if op == "overhead":
            values[metric] = (statistics.median(r["wall"] for r in traced)
                              - statistics.median(r["wall"] for r in plain))
            continue
        if how[1] in tracer.absent:
            values[metric] = None
            continue
        per_round = []
        for r in traced:
            items = [(s, t) for rid in r["requests"] for s, t in by_request[rid] if s.name == how[1]]
            if op == "self":
                per_round.append(sum(t for _, t in items))
            elif op == "calls":
                per_round.append(len(items))
            else:
                key = "scan_iters" if op == "ratio" else how[2]
                counts = [s.counts.get(key) for s, _ in items]
                if None in counts:
                    per_round.append(None)
                elif op == "max":
                    per_round.append(max(counts, default=0))
                elif op == "sum":
                    per_round.append(sum(counts))
                else:
                    per_round.append(sum(counts) / (n + r["lines"]) if counts else 0)
        values[metric] = None if None in per_round else statistics.median(per_round)
    return values


def breakdown(tracer, rounds, times_by_id) -> list:
    """Readable lines: per request type, median self time of each layer."""
    own = self_times(tracer.spans)
    per_kind = defaultdict(lambda: defaultdict(list))
    walls = defaultdict(list)
    for r in rounds:
        if not r["traced"]:
            continue
        for kind, rid in zip(KINDS, r["requests"]):
            totals = defaultdict(float)
            for span, t in zip(tracer.spans, own):
                if span.request == rid:
                    totals[span.name] += t
            for name, t in totals.items():
                per_kind[kind][name].append(t)
            walls[kind].append(times_by_id[rid])
    lines = []
    for kind in KINDS:
        if not walls[kind]:
            continue
        wall = statistics.median(walls[kind])
        parts = sorted(((statistics.median(v), name) for name, v in per_kind[kind].items()), reverse=True)
        shown = ", ".join(f"{name} {t:.4f} s ({100 * t / wall:.0f}%)" for t, name in parts)
        lines.append(f"layers of {kind} ({wall:.4f} s traced): {shown}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        perms = workloads.instance(workload, args.seed)
        path = os.path.join(tmp, "instance.txt")
        workloads.write_instance(perms, path)
        n = len(perms[0])
        attempted, failed = oracle_checks(workload, args.seed, tmp)

        req = Requests(workload, path)
        check = Checker(workload, perms, args.seed)
        tracer = Tracer(TRACE_LAYERS)
        times = {kind: [] for kind in KINDS}
        times_by_id = {}
        rounds = []
        deadline = time.perf_counter() + args.seconds
        rid = 0
        while True:
            # Every run completes one round, a traced run one plain and one
            # traced round, however short --seconds is.
            must = len(rounds) < (2 if args.trace else 1)
            if time.perf_counter() >= deadline and not must:
                break
            r = {"traced": bool(args.trace) and len(rounds) % 2 == 1, "requests": [], "wall": 0.0}
            rounds.append(r)
            for kind in KINDS:
                if time.perf_counter() >= deadline and not must:
                    break
                tracer.request = rid
                if r["traced"]:
                    tracer.install()
                try:
                    result, seconds = attempt(getattr(req, kind))
                finally:
                    tracer.uninstall()
                problem = check(kind, result)
                attempted += 1
                times[kind].append((seconds, problem is None))
                if problem is not None:
                    failed += 1
                    print(f"check failed: {workload.name} {kind}: {problem}", file=sys.stderr)
                times_by_id[rid] = seconds
                r["requests"].append(rid)
                r["wall"] += seconds
                rid += 1
            r["lines"] = check.lines or 0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    env = {
        "workload": workload.name,
        "seed": args.seed,
        "backend": "numba" if getattr(_kernels, "HAVE_NUMBA", False) else "pure-python",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "n": n,
        "b0": workload.b0,
    }
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for kind in KINDS:
        ts = [t for t, ok in times[kind] if ok]
        if ts:
            print(f"{kind}: {len(ts)} ok of {len(times[kind])} requests, median {statistics.median(ts):.4f} s, "
                  f"min {min(ts):.4f} s, max {max(ts):.4f} s")
    result = {
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "times": times,  # kind -> [(seconds, passed checks)]
        "peak_rss_mb": peak_rss_mb,
        "rounds": rounds,
    }
    if args.trace:
        result["per_layer"] = per_layer_metrics(tracer, rounds, n)
        for line in breakdown(tracer, rounds, times_by_id):
            print(line)
        result["spans"] = [vars(s) for s in tracer.spans]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
