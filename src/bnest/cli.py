#!/usr/bin/env python3
"""Command-line front end.

Subcommands: tree, enumerate, count, oracle-check, gen, bench.  A run's config
is its argparse namespace, checked by `config_from_args`.  All interval
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
MAX_GENERATED = 10 ** 7  # gen and bench build at most this many labels, n times K


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_pset(config) -> core.PermutationSet:
    """The input, normalized: signed in conserved mode, and there wrapped in
    sentinels under --frame.  `build_conserved_tree` checks the frame."""
    raw = core.parse_permutations(_read_input(config.input))
    if config.mode == "common":
        return core.normalize(raw)
    pset = core.normalize(raw, signed=True)
    return core.apply_frame(pset) if config.frame else pset


def _tree(config, pset):
    return build_pqtree(pset) if config.mode == "common" else build_conserved_tree(pset)


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


def _emit_intervals(runs, pset, config, out) -> int:
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


def _action_tree(config, out) -> int:
    tree = _tree(config, _load_pset(config))
    out.write((tree.to_json() if config.json_out else tree.to_text()) + "\n")
    return EXIT_OK


def _action_enumerate(config, out) -> int:
    pset = _load_pset(config)
    scan = _common_runs if config.mode == "common" else _conserved_runs
    # No local holds the tree: the runs keep its last reference, so --sort frees it
    # before the writer joins its lines.
    runs = scan(_tree(config, pset), config.b, config.min_size)
    if config.count_only:
        out.write(f"{sum(len(ends) for _, ends in runs)}\n")
    else:
        _emit_intervals(runs, pset, config, out)
    return EXIT_OK


def _action_count(config, out) -> int:
    count = count_b_nested_common if config.mode == "common" else count_b_nested_conserved
    out.write(f"{count(_tree(config, _load_pset(config)), config.b, config.min_size)}\n")
    return EXIT_OK


def _action_oracle_check(config, out) -> int:
    pset = _load_pset(config)
    tree = _tree(config, pset)
    b, min_size = config.b, config.min_size
    if config.mode == "common":
        enum, count, family = enumerate_b_nested_common, count_b_nested_common, oracle.all_common(pset)
    else:
        enum, count = enumerate_b_nested_conserved, count_b_nested_conserved
        family = oracle.all_conserved(pset)
    slow = {iv for iv in oracle.all_b_nested(family, b) if iv.size() >= min_size}
    slow_strong = set(oracle.strong_of(family))
    code = EXIT_OK
    for name, got, want in (("enumerate", set(enum(tree, b, min_size)), slow),
                            ("count", count(tree, b, min_size), len(slow)),
                            ("strong", {nd.interval for nd in tree.nodes if nd.size >= 2}, slow_strong)):
        if got == want:
            continue
        code = EXIT_MISMATCH
        if name == "count":
            out.write(f"MISMATCH count: fast={got} oracle={want}\n")
            continue
        out.write(f"MISMATCH {name}: fast={len(got)} oracle={len(want)}\n")
        if config.diff:
            for lo, hi in sorted(want - got):
                out.write(f"  missing ({lo}..{hi})\n")
            for lo, hi in sorted(got - want):
                out.write(f"  spurious ({lo}..{hi})\n")
    if code == EXIT_OK:
        out.write(f"OK {config.mode} b={b} min_size={min_size}: "
                  f"{len(slow)} intervals, {len(slow_strong)} strong\n")
    return code


def _uniform_raw(n: int, K: int, signed: bool, rng: random.Random) -> list:
    """The identity and K-1 shuffles of it; signed shuffles keep the frame
    +1 ... +n and sign each inner label at random."""
    raw = [list(range(1, n + 1))]
    for _ in range(K - 1):
        if signed and n >= 2:
            mid = list(range(2, n))
            rng.shuffle(mid)
            raw.append([1] + [v * rng.choice((1, -1)) for v in mid] + [n])
        else:
            p = list(range(1, n + 1))
            rng.shuffle(p)
            raw.append(p)
    return raw


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


def _action_gen(config, out) -> int:
    rng = random.Random(config.seed)
    n, K = config.n, config.K
    if config.model == "uniform":
        raw = _uniform_raw(n, K, config.signed, rng)
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


def _action_bench(config, out) -> int:
    rng = random.Random(config.seed)
    conserved = config.mode == "conserved"
    enum = enumerate_b_nested_conserved if conserved else enumerate_b_nested_common
    out.write("n,K,b,nocc,build_us,enum_us,scan_iters\n")
    for n in config.sizes:
        sub = random.Random(rng.randrange(1 << 48))
        if config.model == "planted-nested" and n >= 3 and config.K >= 2:
            raw = _planted_raw(n, config.K, config.depth, config.span, sub)
        else:
            raw = _uniform_raw(n, config.K, False, sub)
        pset = core.normalize(raw, signed=conserved or None)
        t0 = time.perf_counter()
        if conserved:
            pset = core.apply_frame(pset)
        tree = _tree(config, pset)
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


def run(config, out=None) -> int:
    """Dispatch one action; returns the process exit code."""
    out = out if out is not None else sys.stdout
    try:
        return _ACTIONS[config.action](config, out)
    except ValueError as exc:  # PermutationError, BoundExceeded, UnicodeDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError:  # a size under MAX_GENERATED can still exhaust a small machine
        print("error: out of memory", file=sys.stderr)
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


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Check the parsed flags, which are the run's config, and return them with
    --sizes parsed to a tuple; a bad value raises ValueError.  A generated
    instance above MAX_GENERATED labels is refused here, before any work."""
    if args.action == "bench":
        try:
            args.sizes = tuple(int(tok) for tok in args.sizes.split(",") if tok.strip())
        except ValueError:
            raise ValueError(f"bad --sizes value {args.sizes!r}") from None
    for flag, dest, low in (("--b", "b", 1), ("--n", "n", 1), ("--k", "K", 1),
                            ("--depth", "depth", 1), ("--span", "span", 2)):
        if getattr(args, dest, low) < low:  # a subcommand without the flag passes
            raise ValueError(f"{flag} must be >= {low}")
    if args.action == "bench" and min(args.sizes, default=0) < 1:
        raise ValueError("--sizes must list one or more sizes >= 1")
    if args.action in ("gen", "bench"):  # both factors are >= 1 by now
        flag, n = ("--n", args.n) if args.action == "gen" else ("--sizes", max(args.sizes))
        if n * args.K > MAX_GENERATED:
            raise ValueError(f"{flag} times --k must be <= {MAX_GENERATED}, got {n} * {args.K}")
    return args


def main(argv=None) -> int:
    try:
        config = config_from_args(build_parser().parse_args(argv))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
