#!/usr/bin/env python3
"""Command-line front end.

Subcommands: tree, enumerate, count, oracle-check.  A run's config
is its argparse namespace, checked by `config_from_args`.  All interval
output is in renumbered space (the first input permutation becomes the
identity); --original-labels maps interval endpoints back through the
recorded relabeling.  Exit codes: 0 ok, 1 validation or usage error, 2
oracle mismatch, 3 I/O error.
"""
from __future__ import annotations

import argparse
import sys
from itertools import chain

from . import core, oracle
from .common_enum import _common_runs, count_b_nested_common, enumerate_b_nested_common
from .conserved_enum import _conserved_runs, count_b_nested_conserved, enumerate_b_nested_conserved
from .conserved_tree import build_conserved_tree
from .pqtree import build_pqtree

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MISMATCH = 2
EXIT_IO = 3

_WRITE_CHUNK = 1 << 16  # output lines per write


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
    """The windows regrouped by left end, ascending, in one bucket pass.  Those of one
    left end keep their arrival order, ascending in ends: nested nodes, inner first."""
    slots = [None] * (n + 1)
    shared = {}  # lo -> every window of that left end, once it has two
    for run in runs:
        lo = run[0]
        if slots[lo] is not None:
            shared.setdefault(lo, [slots[lo]]).append(run)
        slots[lo] = run
    return chain.from_iterable(shared.get(run[0], (run,)) for run in filter(None, slots))


def _emit_intervals(runs, pset, config, out) -> int:
    """Write a "lo hi" line per interval of the windows (lo, ends, i, j), each one
    join over a slice of its end list's "name\\n" strings, made once per list."""
    if config.sort:
        runs = _by_left_end(runs, pset.n)
    names = list(map(str, pset.original_of if config.original_labels else range(pset.n + 1)))
    left = [name + " " for name in names]
    right = [name + "\n" for name in names]
    texts = {}  # id(ends) -> (ends, its strings); holding ends keeps its id unused
    parts = []
    count = written = 0
    for lo, ends, i, j in runs:
        if j - i == 1:
            parts += left[lo], right[ends[i]]
        else:
            text = texts.get(id(ends))
            if text is None:
                text = texts[id(ends)] = ends, list(map(right.__getitem__, ends))
            parts += left[lo], left[lo].join(text[1][i:j])
        count += j - i
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
    # No local holds the tree and the windows hold end lists, not nodes: the run
    # producer keeps its last reference, so --sort frees it before the writer joins.
    runs = scan(_tree(config, pset), config.b, config.min_size)
    if config.count_only:
        out.write(f"{sum(j - i for _, _, i, j in runs)}\n")
    else:
        _emit_intervals(runs, pset, config, out)
    return EXIT_OK


def _action_count(config, out) -> int:
    count = count_b_nested_common if config.mode == "common" else count_b_nested_conserved
    out.write(f"{count(_tree(config, _load_pset(config)), config.b, config.min_size)}\n")
    return EXIT_OK


def _action_oracle_check(config, out) -> int:
    pset = _load_pset(config)
    if pset.n > oracle.MAX_N:  # before the tree: a large build would end in this refusal
        raise oracle.BoundExceeded(pset.n, oracle.MAX_N)
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


_ACTIONS = {
    "tree": _action_tree,
    "enumerate": _action_enumerate,
    "count": _action_count,
    "oracle-check": _action_oracle_check,
}


def run(config, out=None) -> int:
    """Dispatch one action; returns the process exit code."""
    out = out if out is not None else sys.stdout
    try:
        return _ACTIONS[config.action](config, out)
    except ValueError as exc:  # PermutationError, BoundExceeded, UnicodeDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError:  # a large input can exhaust a small machine
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

    return parser


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Check the parsed flags, which are the run's config, and return them;
    a bad value raises ValueError."""
    if args.b < 1:
        raise ValueError("--b must be >= 1")
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
