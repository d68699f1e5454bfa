"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

The lines print straight to the terminal (capture bypassed) so the verdict
stays visible in any pytest run.  All corpora are seeded; the golden trees
are built once first so first-call costs never land in a measured window.
"""
from __future__ import annotations

import gc
import random
import time

import pytest

from bnest import cli, core, oracle
from bnest.common_enum import (
    ScanStats,
    annotate,
    count_b_nested_common,
    enumerate_b_nested_common,
    qnode_count_parts,
)
from bnest.conserved_enum import (
    annotate_conserved,
    count_b_nested_conserved,
    enumerate_b_nested_conserved,
)
from bnest.conserved_tree import build_conserved_tree, irreducible_conserved_intervals
from bnest.pqtree import build_pqtree
from conftest import (
    GOLD_COMMON_RAW,
    GOLD_CONSERVED_RAW,
    child_intervals,
    ivset,
    planted_raw,
    random_framed_raw,
    random_unsigned_raw,
    weak_b_nested,
)


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    build_pqtree(core.normalize(GOLD_COMMON_RAW))
    build_conserved_tree(core.normalize(GOLD_CONSERVED_RAW, signed=True))


def _report(capsys, num: int, label: str, ok: bool, detail: str):
    with capsys.disabled():
        print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_conserved_golden(capsys):
    pset = core.normalize(GOLD_CONSERVED_RAW, signed=True)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        tree = build_conserved_tree(pset)
        irr = set(irreducible_conserved_intervals(tree))
        best = min(best, time.perf_counter() - t0)
    problems = []
    if irr != ivset({(1, 4), (2, 3), (4, 5), (5, 9), (6, 7), (7, 8)}):
        problems.append(f"irreducibles {sorted(map(str, irr))}")
    root = tree.root
    if root.interval != core.Interval(1, 9) or len(root.children) != 2:
        problems.append("tree shape")
    want_frontiers = {(1, 9): (1, 4, 5, 9), (2, 3): (2, 3), (6, 8): (6, 7, 8)}
    got_frontiers = {(nd.interval.lo, nd.interval.hi): nd.frontiers
                     for nd in tree.nodes}
    if got_frontiers != want_frontiers:
        problems.append(f"frontiers {got_frontiers}")
    if best >= 1e-3:
        problems.append(f"slow: {best * 1e6:.0f}us")
    _report(capsys, 1, "signed golden instance", not problems,
            problems[0] if problems else f"exact match in {best * 1e6:.0f}us")


def test_criterion_2_q_count_pattern(capsys):
    blocks = [[1], [2], [3], [4, 5], [6], [7], [8, 9], [10], [11, 12]]
    p2 = [v for blk in blocks for v in reversed(blk)]
    tree = build_pqtree(core.normalize([list(range(1, 13)), p2]))
    annotate(tree)
    large_terms, run_terms = qnode_count_parts(tree.root, 1)
    ok = (tree.root.kind == "Q"
          and large_terms == [11, 5, 1]
          and run_terms == [3, 1, 0]
          and sum(large_terms) + sum(run_terms) == 21)
    _report(capsys, 2, "per-child count decomposition", ok,
            f"large={large_terms} runs={run_terms} total="
            f"{sum(large_terms) + sum(run_terms)}")


def test_criterion_3_common_oracle_equivalence(capsys, common_corpus):
    t0 = time.perf_counter()
    bad = 0
    for pset in common_corpus:
        tree = build_pqtree(pset)
        fam = oracle.all_common(pset)
        for b in (1, 2, 3, 5):
            expected = oracle.all_b_nested(fam, b)
            got = list(enumerate_b_nested_common(tree, b, 1))
            if (len(got) != len(set(got)) or set(got) != expected
                    or count_b_nested_common(tree, b, 1) != len(expected)):
                bad += 1
            wide = {iv for iv in expected if iv.size() >= 2}
            if (set(enumerate_b_nested_common(tree, b, 2)) != wide
                    or count_b_nested_common(tree, b, 2) != len(wide)):
                bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 60
    _report(capsys, 3, "common vs oracle, 500 instances", ok,
            f"{bad} mismatches in {elapsed:.1f}s")


def test_criterion_4_conserved_oracle_equivalence(capsys, conserved_corpus):
    t0 = time.perf_counter()
    bad = 0
    for pset in conserved_corpus:
        tree = build_conserved_tree(pset)
        fam = oracle.all_conserved(pset)
        for b in (1, 2, 3):
            expected = oracle.all_b_nested(fam, b)
            got = list(enumerate_b_nested_conserved(tree, b, 1))
            if (len(got) != len(set(got)) or set(got) != expected
                    or count_b_nested_conserved(tree, b, 1) != len(expected)):
                bad += 1
            wide = {iv for iv in expected if iv.size() >= 2}
            if (set(enumerate_b_nested_conserved(tree, b, 2)) != wide
                    or count_b_nested_conserved(tree, b, 2) != len(wide)):
                bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 60
    _report(capsys, 4, "conserved vs oracle, 500 instances", ok,
            f"{bad} mismatches in {elapsed:.1f}s")


def test_criterion_5_pqtree_completeness_laminarity(capsys, common_corpus):
    violations = 0
    for pset in common_corpus:
        tree = build_pqtree(pset)
        fam = oracle.all_common(pset)
        regenerated = set()
        for nd in tree.nodes:
            regenerated.add(nd.interval)
            # children, leaves included, partition the node interval: laminar
            # by construction, so any violation shows up as an overlap or
            # overreach here; a stored child must be internal
            kids = child_intervals(nd)
            regenerated.update(kids)
            pos = nd.interval.lo
            for c in kids:
                if c.lo != pos:
                    violations += 1
                pos = c.hi + 1
            if kids and pos != nd.interval.hi + 1:
                violations += 1
            violations += sum(c.size < 2 for c in nd.children)
            if nd.kind == "Q":
                for a in range(len(kids)):
                    for d in range(a + 1, len(kids)):
                        regenerated.add(core.Interval(kids[a].lo, kids[d].hi))
        if regenerated != fam:
            violations += 1
    _report(capsys, 5, "PQ-tree regenerates the family", violations == 0,
            f"{violations} violations")


def test_criterion_6_gap_dichotomy(capsys, conserved_corpus):
    violations = 0
    for pset in conserved_corpus:
        tree = build_conserved_tree(pset)
        fam = oracle.all_conserved(pset)
        annotate_conserved(tree)
        for b in (1, 2, 3):
            expected = oracle.all_b_nested(fam, b)
            for nd in tree.nodes:
                for (i, j), verdict in weak_b_nested(nd, b).items():
                    iv = core.Interval(nd.frontiers[i], nd.frontiers[j])
                    if verdict != (iv in expected):
                        violations += 1
    _report(capsys, 6, "gap test equals recursive definition", violations == 0,
            f"{violations} verdict mismatches")


def test_criterion_7_identity_chain_law(capsys):
    bad = []
    for n in range(1, 51):
        tree = build_pqtree(core.normalize([list(range(1, n + 1))]))
        for b in (1, 2, 3, 7, n):
            if count_b_nested_common(tree, max(b, 1), 1) != n * (n + 1) // 2:
                bad.append((n, b))
    _report(capsys, 7, "identity chain count", not bad, f"failures: {bad}")


# Criterion 8 times its sizes round-robin, best of this many rounds each, so
# a change of CPU speed during the test hits every size alike.
ENUM_ROUNDS = 5


def test_criterion_8_output_sensitive_scaling(capsys):
    built = []
    for n in (10**3, 10**4, 10**5):
        rng = random.Random(10_000 + n)
        raw = planted_raw(n, 4, 6, 8, rng)
        t0 = time.perf_counter()
        pset = core.normalize(raw)
        tree = build_pqtree(pset)
        built.append((n, tree, time.perf_counter() - t0))
    best = [float("inf")] * len(built)
    counted = [None] * len(built)
    for _ in range(ENUM_ROUNDS):
        for idx, (n, tree, _) in enumerate(built):
            gc.collect()
            gc.disable()
            try:
                stats = ScanStats()
                ta = time.perf_counter()
                nocc = sum(1 for _ in enumerate_b_nested_common(
                    tree, 2, 1, stats=stats))
                best[idx] = min(best[idx], time.perf_counter() - ta)
            finally:
                gc.enable()
            counted[idx] = (nocc, stats.iterations)
    rows = [(n, *counted[idx], build_s, best[idx]) for idx, (n, _, build_s) in enumerate(built)]
    problems = []
    for n, nocc, iters, _, _ in rows:
        if iters > 4 * (n + nocc):
            problems.append(f"n={n}: {iters} scan iters > 4*(n+nocc)")
    ratios = [enum_s / (n + nocc) for n, nocc, _, _, enum_s in rows]
    if max(ratios) > 3 * min(ratios):
        problems.append(f"nonlinear: {[f'{r * 1e6:.2f}us' for r in ratios]}")
    n_big, _, _, build_s, enum_s = rows[-1]
    if build_s + enum_s >= 10:
        problems.append(f"n={n_big} took {build_s + enum_s:.1f}s")
    detail = (problems[0] if problems else
              f"spread {max(ratios) / min(ratios):.2f}x, "
              f"n=1e5 in {rows[-1][3] + rows[-1][4]:.2f}s")
    _report(capsys, 8, "scaling on planted instances", not problems, detail)


def test_criterion_9_cli_count_enumerate_parity(capsys, tmp_path):
    rng = random.Random(424242)
    bad = 0
    for idx in range(50):
        conserved = idx % 2 == 1
        if conserved:
            n = rng.randint(2, 10)
            raw = random_framed_raw(rng, n, rng.randint(1, 4))
        else:
            n = rng.randint(1, 12)
            raw = random_unsigned_raw(rng, n, rng.randint(1, 5))
        path = tmp_path / f"inst{idx}.txt"
        path.write_text("".join(
            " ".join(str(v) for v in row) + "\n" for row in raw))
        mode = "conserved" if conserved else "common"
        for b in ("1", "2", "3"):
            for ms in ("1", "2"):
                base = ["--mode", mode, "--b", b, "--min-size", ms, str(path)]
                if cli.main(["count"] + base) != 0:
                    bad += 1
                    continue
                counted = int(capsys.readouterr().out)
                for flags in ([], ["--sort"], ["--original-labels"],
                              ["--sort", "--original-labels"]):
                    if cli.main(["enumerate"] + flags + base) != 0:
                        bad += 1
                        continue
                    lines = capsys.readouterr().out.splitlines()
                    if len(lines) != counted:
                        bad += 1
    _report(capsys, 9, "CLI count/enumerate parity", bad == 0,
            f"{bad} flag combinations disagreed")
