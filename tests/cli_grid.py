#!/usr/bin/env python3
"""Byte-identity grid of the bnest command line.

    python tests/cli_grid.py SRC_DIR [--dump]

Imports bnest from SRC_DIR and runs `cli.main` in-process over a fixed grid
of argument lists, recording each case's stdout, stderr and exit code.  It
prints `<cases> <sha256>`, one digest over every case in order; with --dump
it prints one `<digest> <argv>` line per case instead, for diffing.  Run it
on two source trees: equal lines mean the two give byte-identical output on
every case.

The grid:
  - instances: the three benchmark workloads x seeds 501-503 x their full
    and small instance, four unframed signed sets and both gold sets;
  - for each instance, both modes, with and without --frame: `tree`,
    `tree --json`, and at b 1/2/3/16 and min-size 1/2 `count` and all eight
    `enumerate` --sort/--original-labels/--count-only combinations;
  - `oracle-check --diff` at the same b and min-size on the instances of at
    most 12 labels;
  - 14 argument lists that must fail.

The file name has no test_ prefix, so pytest does not collect it.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (501, 502, 503)
BS = ("1", "2", "3", "16")
MIN_SIZES = ("1", "2")
ORACLE_MAX_N = 12


def _signed_raw(rng: random.Random, n: int, K: int) -> list:
    """K signed permutations of 1..n with no frame: random order and signs."""
    raw = []
    for _ in range(K):
        row = list(range(1, n + 1))
        rng.shuffle(row)
        raw.append([v * rng.choice((1, -1)) for v in row])
    return raw


def instances() -> list:
    """(file name, raw permutations) for every grid instance."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
    from workloads import WORKLOADS, instance
    from conftest import GOLD_COMMON_RAW, GOLD_CONSERVED_RAW

    out = []
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            for small in (False, True):
                out.append((f"{name}-{seed}-{'small' if small else 'full'}.txt",
                            instance(workload, seed, small=small)))
    rng = random.Random(5010)
    for idx in range(4):
        out.append((f"signed-{idx}.txt", _signed_raw(rng, rng.randint(4, 10), rng.randint(2, 3))))
    out.append(("gold-common.txt", GOLD_COMMON_RAW))
    out.append(("gold-conserved.txt", GOLD_CONSERVED_RAW))
    return out


def argv_lists(files: list) -> list:
    """Every grid case's argument list, in order; files are (name, n) pairs."""
    cases = []
    for path, n in files:
        for mode, frame in itertools.product(("common", "conserved"), ((), ("--frame",))):
            base = ["--mode", mode, *frame]
            cases.append(["tree", *base, path])
            cases.append(["tree", "--json", *base, path])
            for b, ms in itertools.product(BS, MIN_SIZES):
                flags = [*base, "--b", b, "--min-size", ms]
                cases.append(["count", *flags, path])
                for sort, original, count_only in itertools.product((False, True), repeat=3):
                    cases.append(["enumerate", *flags, *["--sort"] * sort,
                                  *["--original-labels"] * original,
                                  *["--count-only"] * count_only, path])
                if n <= ORACLE_MAX_N:
                    cases.append(["oracle-check", "--diff", *flags, path])
    cases += [
        [],
        ["frobnicate"],
        ["count", "--b", "0", "gold-common.txt"],
        ["count", "--b", "x", "gold-common.txt"],
        ["count", "--min-size", "3", "gold-common.txt"],
        ["count", "--mode", "weird", "gold-common.txt"],
        ["count", "missing.txt"],
        ["enumerate", "--b", "-1", "gold-common.txt"],
        ["enumerate", "--mode", "conserved", "signed-0.txt"],
        ["count", "bad-token.txt"],
        ["count", "bad-length.txt"],
        ["count", "bad-duplicate.txt"],
        ["count", "empty.txt"],
        ["tree", "--json", "--b", "0", "gold-common.txt"],
    ]
    return cases


def run_case(cli, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO("")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    dump = "--dump" in args
    rest = [a for a in args if a != "--dump"]
    if len(rest) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    src = os.path.abspath(rest[0])
    sys.path.insert(0, src)
    sys.path.insert(1, HERE)
    from bnest import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        print(f"error: bnest was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1

    total = hashlib.sha256()
    cases = 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative file names keep argv and messages free of the path
        try:
            files = []
            for name, raw in instances():
                with open(name, "w", encoding="utf-8") as fh:
                    fh.write("".join(" ".join(map(str, row)) + "\n" for row in raw))
                files.append((name, len(raw[0])))
            for name, text in (("bad-token.txt", "1 2 x\n"), ("bad-length.txt", "1 2 3\n1 2\n"),
                               ("bad-duplicate.txt", "1 2 3\n1 1 3\n"), ("empty.txt", "")):
                with open(name, "w", encoding="utf-8") as fh:
                    fh.write(text)
            stdin = sys.stdin
            try:
                for case in argv_lists(files):
                    digest = hashlib.sha256(repr((case, *run_case(cli, case))).encode()).hexdigest()
                    if dump:
                        print(digest, " ".join(case))
                    total.update(digest.encode())
                    cases += 1
            finally:
                sys.stdin = stdin
        finally:
            os.chdir(cwd)
    if not dump:
        print(cases, total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
