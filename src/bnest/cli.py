#!/usr/bin/env python3
"""Command-line front end.

Subcommands: tree, enumerate, count, oracle-check, gen, bench.  All interval
output is in renumbered space (the first input permutation becomes the
identity); --original-labels maps interval endpoints back through the
recorded relabeling.  Exit codes: 0 ok, 1 validation or usage error, 2
oracle mismatch, 3 I/O error.
"""
from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass
from itertools import chain, compress

from . import core, oracle
from .common_enum import ScanStats, _common_runs, count_b_nested_common, enumerate_b_nested_common
from .conserved_enum import _conserved_runs, count_b_nested_conserved, enumerate_b_nested_conserved
from .conserved_tree import build_conserved_tree
from .pqtree import build_pqtree

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MISMATCH = 2
EXIT_IO = 3

_WRITE_CHUNK = 1 << 16  # output lines per write


@dataclass(frozen=True)
class RunConfig:
    mode: str = "common"  # or "conserved"
    action: str = "count"  # tree | enumerate | count | oracle-check | gen | bench
    b: int = 1
    min_size: int = 2
    frame: bool = False
    sort: bool = False
    original_labels: bool = False
    json_out: bool = False
    count_only: bool = False
    diff: bool = False
    seed: int = 0
    n: int = 1
    K: int = 1
    model: str = "uniform"  # or "planted-nested"
    depth: int = 2
    span: int = 3
    signed: bool = False
    sizes: tuple = ()
    input_path: str = "-"


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_pset(config: RunConfig) -> core.PermutationSet:
    raw = core.parse_permutations(_read_input(config.input_path))
    signed = True if config.mode == "conserved" else None
    pset = core.normalize(raw, signed=signed)
    if config.mode == "conserved":
        pset = core.validate_conserved_frame(pset, frame=config.frame)
    return pset


def _by_left_end(runs, n: int):
    """The runs regrouped as one run per left end, ascending.  The runs of a
    shared left end are sorted together once; they arrive in ascending order
    (nested nodes, inner first), so timsort's pass over them is linear."""
    slots = [None] * (n + 1)
    shared = {}  # lo -> every run of that left end, once it has two
    for lo, ends in runs:
        if slots[lo] is not None:
            shared.setdefault(lo, [slots[lo]]).append(ends)
        slots[lo] = ends
    for lo, parts in shared.items():
        slots[lo] = sorted(chain.from_iterable(parts))
    return compress(enumerate(slots), slots)  # runs are never empty


def _emit_intervals(runs, pset, config: RunConfig, out) -> int:
    """Write a "lo hi" line per interval of the (lo, ends) runs, each run one join
    of per-label "name " and "name\\n" strings, about _WRITE_CHUNK lines per write."""
    if config.sort:
        runs = _by_left_end(runs, pset.n)
    labels = pset.original_of if config.original_labels else range(pset.n + 1)
    names = list(map(str, labels))
    left = [name + " " for name in names]
    right = [name + "\n" for name in names]
    parts = []
    count = written = 0
    for lo, ends in runs:
        parts += left[lo], left[lo].join(map(right.__getitem__, ends))
        count += len(ends)
        if count - written >= _WRITE_CHUNK:
            out.write("".join(parts))
            parts.clear()
            written = count
    out.write("".join(parts))
    return count


def _action_tree(config: RunConfig, out) -> int:
    pset = _load_pset(config)
    tree = build_pqtree(pset) if config.mode == "common" else build_conserved_tree(pset)
    out.write(tree.to_json() + "\n" if config.json_out else tree.to_text() + "\n")
    return EXIT_OK


def _action_enumerate(config: RunConfig, out) -> int:
    pset = _load_pset(config)
    if config.mode == "common":
        runs = _common_runs(build_pqtree(pset), config.b, config.min_size)
    else:
        runs = _conserved_runs(build_conserved_tree(pset), config.b, config.min_size)
    if config.count_only:
        out.write(f"{sum(len(ends) for _, ends in runs)}\n")
    else:
        _emit_intervals(runs, pset, config, out)
    return EXIT_OK


def _action_count(config: RunConfig, out) -> int:
    pset = _load_pset(config)
    if config.mode == "common":
        total = count_b_nested_common(build_pqtree(pset), config.b, config.min_size)
    else:
        total = count_b_nested_conserved(build_conserved_tree(pset), config.b, config.min_size)
    out.write(f"{total}\n")
    return EXIT_OK


def _action_oracle_check(config: RunConfig, out) -> int:
    pset = _load_pset(config)
    if config.mode == "common":
        tree = build_pqtree(pset)
        fast = set(enumerate_b_nested_common(tree, config.b, config.min_size))
        counted = count_b_nested_common(tree, config.b, config.min_size)
        family = oracle.all_common(pset)
    else:
        tree = build_conserved_tree(pset)
        fast = set(enumerate_b_nested_conserved(tree, config.b, config.min_size))
        counted = count_b_nested_conserved(tree, config.b, config.min_size)
        family = oracle.all_conserved(pset)
    fast_strong = {nd.interval for nd in tree.nodes if nd.size >= 2}
    slow_strong = set(oracle.strong_of(family))
    slow = {iv for iv in oracle.all_b_nested(family, config.b) if iv.size() >= config.min_size}

    problems = []
    if fast != slow:
        problems.append(("enumerate", fast, slow))
    if counted != len(slow):
        problems.append(("count", {counted}, {len(slow)}))
    if fast_strong != slow_strong:
        problems.append(("strong", fast_strong, slow_strong))
    if not problems:
        out.write(f"OK {config.mode} b={config.b} min_size={config.min_size}: "
                  f"{len(slow)} intervals, {len(slow_strong)} strong\n")
        return EXIT_OK
    for name, got, want in problems:
        out.write(f"MISMATCH {name}: fast={len(got)} oracle={len(want)}\n")
        if config.diff and not (len(got) == 1 and isinstance(next(iter(got)), int)):
            for lo, hi in sorted(want - got):
                out.write(f"  missing ({lo}..{hi})\n")
            for lo, hi in sorted(got - want):
                out.write(f"  spurious ({lo}..{hi})\n")
    return EXIT_MISMATCH


def _planted_raw(n: int, K: int, depth: int, span: int, rng: random.Random) -> list:
    """Nested value-range blocks, realized as contiguous runs in every
    permutation so each block is a strong common interval."""
    outer = min(max(span, depth + 1), n - 1)
    sizes = []
    for t in range(depth):
        s = outer - t
        if s < 2:
            break
        sizes.append(s)
    blocks = []
    lo = rng.randint(1, n - sizes[0] + 1) if n > sizes[0] else 1
    for s in sizes:
        blocks.append((lo, lo + s - 1))
        if blocks[-1][1] - lo > 1:
            lo = lo + rng.randint(0, 1)
    raw = [list(range(1, n + 1))]
    for _ in range(K - 1):
        raw.append(_shuffle_with_blocks(n, blocks, rng))
    return raw


def _shuffle_with_blocks(n: int, blocks: list, rng: random.Random) -> list:
    """Shuffle treating each block as one unit at its nesting level,
    innermost level first, in time linear in n plus the depth."""
    lo, hi = 1, n  # scope of the current level
    free = []  # free[t]: ascending labels of level t's scope outside block t
    for blo, bhi in blocks:
        free.append(list(range(lo, min(hi, blo - 1) + 1)) + list(range(max(lo, bhi + 1), hi + 1)))
        lo, hi = max(lo, blo), min(hi, bhi)
    inner = list(range(lo, hi + 1))
    rng.shuffle(inner)
    heads, tails = [], []
    for labels in reversed(free):
        units = labels + [0]  # 0 stands for the arranged inner block
        rng.shuffle(units)
        at = units.index(0)
        heads.append(units[:at])
        tails.append(units[at + 1:])
    flat = [v for head in reversed(heads) for v in head]
    flat.extend(inner)
    flat.extend(v for tail in tails for v in tail)
    return flat


def _tree_internal_depth(tree) -> int:
    best = 0
    stack = [(tree.root, 1)]
    while stack:
        node, depth = stack.pop()
        if not node.is_leaf:
            best = max(best, depth)
            for c in node.children:
                stack.append((c, depth + 1))
    return best


def _action_gen(config: RunConfig, out) -> int:
    rng = random.Random(config.seed)
    n, K = config.n, config.K
    if config.model == "uniform":
        raw = [list(range(1, n + 1))]
        for _ in range(K - 1):
            if config.signed and n >= 2:
                mid = list(range(2, n))
                rng.shuffle(mid)
                raw.append([1] + [v * rng.choice((1, -1)) for v in mid] + [n])
            else:
                p = list(range(1, n + 1))
                rng.shuffle(p)
                raw.append(p)
    else:
        if config.signed:
            raise core.PermutationError("planted-nested generates unsigned sets")
        if n < 3 or K < 2:
            raise core.PermutationError("planted-nested needs n >= 3 and K >= 2")
        want = config.depth + 1  # root plus the planted chain
        raw = None
        for attempt in range(64):
            candidate = _planted_raw(n, K, config.depth, config.span, rng)
            tree = build_pqtree(core.normalize(candidate))
            if _tree_internal_depth(tree) >= want:
                raw = candidate
                break
        if raw is None:
            raise core.PermutationError(
                f"could not plant {config.depth} nested levels in n={n}, K={K}"
            )
    pset = core.normalize(raw, signed=config.signed or None)
    out.write(core.format_permutations(pset))
    return EXIT_OK


def _action_bench(config: RunConfig, out) -> int:
    rng = random.Random(config.seed)
    out.write("n,K,b,nocc,build_us,enum_us,scan_iters\n")
    for n in config.sizes:
        sub = random.Random(rng.randrange(1 << 48))
        if config.model == "planted-nested" and n >= 3 and config.K >= 2:
            raw = _planted_raw(n, config.K, config.depth, config.span, sub)
        else:
            raw = [list(range(1, n + 1))]
            for _ in range(config.K - 1):
                p = list(range(1, n + 1))
                sub.shuffle(p)
                raw.append(p)
        pset = core.normalize(raw, signed=True if config.mode == "conserved" else None)
        t0 = time.perf_counter()
        if config.mode == "common":
            tree, enum = build_pqtree(pset), enumerate_b_nested_common
        else:
            pset = core.validate_conserved_frame(pset, frame=True)
            tree, enum = build_conserved_tree(pset), enumerate_b_nested_conserved
        t1 = time.perf_counter()
        stats = ScanStats()
        nocc = sum(1 for _ in enum(tree, config.b, config.min_size, stats=stats))
        t2 = time.perf_counter()
        out.write(f"{pset.n},{config.K},{config.b},{nocc},"
                  f"{int((t1 - t0) * 1e6)},{int((t2 - t1) * 1e6)},{stats.iterations}\n")
    return EXIT_OK


_ACTIONS = {
    "tree": _action_tree,
    "enumerate": _action_enumerate,
    "count": _action_count,
    "oracle-check": _action_oracle_check,
    "gen": _action_gen,
    "bench": _action_bench,
}


def run(config: RunConfig, out=None) -> int:
    """Dispatch one action; returns the process exit code."""
    out = out if out is not None else sys.stdout
    try:
        return _ACTIONS[config.action](config, out)
    except core.PermutationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, oracle.BoundExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit 1 (validation), not
    argparse's 2, which bnest documents as an oracle mismatch."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _add_common_flags(sub):
    sub.add_argument("--mode", choices=("common", "conserved"), default="common")
    sub.add_argument("--b", type=int, default=1, help="nesting slack, >= 1")
    sub.add_argument("--min-size", type=int, choices=(1, 2), default=2, dest="min_size")
    sub.add_argument("--frame", action="store_true",
                     help="wrap conserved input in sentinel elements first")
    sub.add_argument("input", nargs="?", default="-", help="permutation file, '-' for stdin")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bnest", description="b-nested common and conserved intervals")
    subs = parser.add_subparsers(dest="action", required=True)

    p = subs.add_parser("tree", help="print the interval tree")
    _add_common_flags(p)
    p.add_argument("--json", action="store_true", dest="json_out")

    p = subs.add_parser("enumerate", help="list b-nested intervals, one per line")
    _add_common_flags(p)
    p.add_argument("--sort", action="store_true", help="sort output by (lo, hi)")
    p.add_argument("--original-labels", action="store_true", dest="original_labels")
    p.add_argument("--count-only", action="store_true", dest="count_only")

    p = subs.add_parser("count", help="print the number of b-nested intervals")
    _add_common_flags(p)

    p = subs.add_parser("oracle-check", help="compare against the brute-force oracle")
    _add_common_flags(p)
    p.add_argument("--diff", action="store_true", help="print the symmetric difference")

    p = subs.add_parser("gen", help="write a random permutation file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True, dest="K")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", choices=("uniform", "planted-nested"), default="uniform")
    p.add_argument("--depth", type=int, default=2,
                   help="planted nesting levels; each is the next one plus one element, so "
                        "adjacent levels can merge into one Q-node, and deep chains over few "
                        "permutations may fail to plant (exit 1), e.g. --n 300 --depth 20 --k 2")
    p.add_argument("--span", type=int, default=3,
                   help="outermost planted block size; levels shrink by one element each")
    p.add_argument("--signed", action="store_true",
                   help="uniform model: framed signed permutations")

    p = subs.add_parser("bench", help="CSV timing/iteration report over generated instances")
    p.add_argument("--sizes", default="1000,10000,100000",
                   help="comma-separated n values")
    p.add_argument("--k", type=int, default=4, dest="K")
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--min-size", type=int, choices=(1, 2), default=2, dest="min_size")
    p.add_argument("--mode", choices=("common", "conserved"), default="common")
    p.add_argument("--model", choices=("uniform", "planted-nested"), default="planted-nested")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--span", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {}
    for name in RunConfig.__dataclass_fields__:
        if hasattr(args, name):
            fields[name] = getattr(args, name)
    if getattr(args, "sizes", None) is not None and isinstance(args.sizes, str):
        try:
            fields["sizes"] = tuple(int(tok) for tok in args.sizes.split(",") if tok.strip())
        except ValueError:
            raise ValueError(f"bad --sizes value {args.sizes!r}") from None
    if hasattr(args, "input"):
        fields["input_path"] = args.input
    return RunConfig(**fields)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        if config.b < 1:
            raise ValueError("--b must be >= 1")
        if config.action in ("gen", "bench"):
            for flag, value, low in (("--n", config.n, 1), ("--k", config.K, 1),
                                     ("--depth", config.depth, 1), ("--span", config.span, 2)):
                if value < low:  # bench has no --n; its n keeps the default 1
                    raise ValueError(f"{flag} must be >= {low}")
            if config.action == "bench" and min(config.sizes, default=0) < 1:
                raise ValueError("--sizes must list one or more sizes >= 1")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
