"""Nesting verdicts, the Q-node scan, and the closed-form counts."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnest import core, oracle
from bnest.common_enum import (
    ScanStats,
    annotate,
    count_b_nested_common,
    enumerate_b_nested_common,
    qnode_count_parts,
)
from bnest.pqtree import build_pqtree
from conftest import child_intervals, ivset, planted_raw, random_unsigned_raw, weak_intervals_of_qnode

# Post-order over nodes, lexicographic (start, end) within a Q scan.
GOLD_ORDER_B1_MIN2 = [
    (2, 3), (1, 3), (1, 4), (2, 4), (5, 6), (7, 8), (7, 9), (8, 9)]


@pytest.fixture
def gold_tree(gold_common_pset):
    return build_pqtree(gold_common_pset)


def test_golden_enumeration_order(gold_tree):
    got = list(enumerate_b_nested_common(gold_tree, 1, 2))
    assert got == [core.Interval(lo, hi) for lo, hi in GOLD_ORDER_B1_MIN2]


def test_golden_b5_adds_root(gold_tree):
    got = list(enumerate_b_nested_common(gold_tree, 5, 2))
    assert got[-1] == core.Interval(1, 9)
    assert set(got) == ivset(GOLD_ORDER_B1_MIN2) | {core.Interval(1, 9)}


def test_golden_counts(gold_tree):
    assert count_b_nested_common(gold_tree, 1, 1) == 17
    assert count_b_nested_common(gold_tree, 5, 1) == 18
    assert count_b_nested_common(gold_tree, 1, 2) == 8
    assert count_b_nested_common(gold_tree, 5, 2) == 9


def test_annotate_verdicts(gold_tree):
    annotate(gold_tree)
    assert gold_tree.root.bstar > 1  # needs a size >= 8 member inside
    assert gold_tree.root.bstar <= 5
    for nd in gold_tree.nodes:
        assert nd.size >= 2  # leaves are not stored: each has bstar 1
        if nd.size <= 2:  # size <= b+1 is always nested
            assert nd.bstar <= 1
    assert ivset((v, v) for v in range(1, 10)) <= set(enumerate_b_nested_common(gold_tree, 1, 1))


def test_annotate_rejects_bad_b(gold_tree):
    for b in (0, -1):
        with pytest.raises(ValueError):
            count_b_nested_common(gold_tree, b)
        with pytest.raises(ValueError):
            next(enumerate_b_nested_common(gold_tree, b))


def test_count_matches_materialized_enumeration(gold_tree):
    assert count_b_nested_common(gold_tree, 1, min_size=2) == 8
    intervals = list(enumerate_b_nested_common(gold_tree, 1, min_size=2))
    assert len(intervals) == 8


def test_qnode_count_parts_pattern():
    """Child pattern [S,S,S,L,S,S,L,S,L] at b=1, every large child nested.

    Blocks of sizes 1,1,1,2,1,1,2,1,2 kept contiguous but internally
    reversed in the second permutation realize the pattern under one Q root.
    """
    blocks = [[1], [2], [3], [4, 5], [6], [7], [8, 9], [10], [11, 12]]
    p2 = [v for blk in blocks for v in reversed(blk)]
    pset = core.normalize([list(range(1, 13)), p2])
    tree = build_pqtree(pset)
    assert tree.root.kind == "Q" and len(child_intervals(tree.root)) == 9
    annotate(tree)
    assert [c.size() > 1 for c in child_intervals(tree.root)] == [
        False, False, False, True, False, False, True, False, True]
    large_terms, run_terms = qnode_count_parts(tree.root, 1)
    assert large_terms == [11, 5, 1]
    assert run_terms == [3, 1, 0]
    assert sum(large_terms) + sum(run_terms) == 21


def test_identity_chain_law():
    for n in (1, 2, 3, 10, 25):
        tree = build_pqtree(core.normalize([list(range(1, n + 1))]))
        for b in (1, 2, n):
            assert count_b_nested_common(tree, b, 1) == n * (n + 1) // 2


def test_min_size_validation(gold_tree):
    with pytest.raises(ValueError):
        count_b_nested_common(gold_tree, 1, 3)


def test_nested_chain_exists():
    """Every reported interval of size >= 2 strictly contains another
    reported interval of size >= its own minus b."""
    rng = random.Random(313)
    for _ in range(40):
        n = rng.randint(2, 10)
        pset = core.normalize(random_unsigned_raw(rng, n, rng.randint(1, 4)))
        tree = build_pqtree(pset)
        for b in (1, 2):
            got = {core.Interval(*p) for p in enumerate_b_nested_common(tree, b, 1)}
            for iv in got:
                if iv.size() == 1:
                    continue
                assert any(
                    iv.strictly_contains(j) and j.size() >= iv.size() - b
                    for j in got)


def test_small_common_always_nested():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 10)
        pset = core.normalize(random_unsigned_raw(rng, n, rng.randint(1, 4)))
        tree = build_pqtree(pset)
        for b in (1, 3):
            got = set(enumerate_b_nested_common(tree, b, 1))
            for iv in oracle.all_common(pset):
                if iv.size() <= b + 1:
                    assert iv in got


@given(st.integers(1, 12), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_enumerate_matches_oracle(n, K, b, seed):
    pset = core.normalize(random_unsigned_raw(random.Random(seed), n, K))
    tree = build_pqtree(pset)
    expected = oracle.all_b_nested(oracle.all_common(pset), b)
    got = list(enumerate_b_nested_common(tree, b, 1))
    assert len(got) == len(set(got))  # each interval exactly once
    assert set(got) == expected
    assert count_b_nested_common(tree, b, 1) == len(expected)
    wide = {iv for iv in expected if iv.size() >= 2}
    assert set(enumerate_b_nested_common(tree, b, 2)) == wide
    assert count_b_nested_common(tree, b, 2) == len(wide)


@given(st.integers(1, 12), st.integers(1, 5), st.integers(1, 5), st.integers(3, 6),
       st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_enumerate_min_size_matches_oracle(n, K, b, min_size, seed):
    pset = core.normalize(random_unsigned_raw(random.Random(seed), n, K))
    tree = build_pqtree(pset)
    expected = {iv for iv in oracle.all_b_nested(oracle.all_common(pset), b)
                if iv.size() >= min_size}
    got = list(enumerate_b_nested_common(tree, b, min_size))
    assert len(got) == len(set(got))
    assert set(got) == expected


@given(st.integers(2, 12), st.integers(2, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_scan_iteration_budget(n, K, seed):
    pset = core.normalize(random_unsigned_raw(random.Random(seed), n, K))
    tree = build_pqtree(pset)
    for b in (1, 2):
        stats = ScanStats()
        assert stats.iterations == 0
        emitted = sum(1 for _ in enumerate_b_nested_common(tree, b, 1, stats=stats))
        assert stats.iterations <= 4 * (n + emitted)


@pytest.mark.parametrize("b", [1, 2, 3])
@pytest.mark.parametrize("min_size", [1, 2])
def test_scan_work_is_steps_plus_scan_output(common_corpus, b, min_size):
    """The scan work is exactly one step per Q-child plus one per interval a
    Q scan yields; leaf and P-node intervals are not scan work."""
    for pset in common_corpus:
        tree = build_pqtree(pset)
        stats = ScanStats(iterations=7)  # the scans add to a running count
        got = list(enumerate_b_nested_common(tree, b, min_size, stats=stats))
        steps = sum(len(child_intervals(nd)) for nd in tree.nodes if nd.kind == "Q")
        unscanned = {(nd.lo, nd.hi) for nd in tree.nodes if nd.kind != "Q"}
        unscanned.update(iv for nd in tree.nodes for iv in child_intervals(nd) if iv.size() == 1)
        assert stats.iterations == 7 + steps + sum(iv not in unscanned for iv in got)


def test_monotone_in_b(gold_tree):
    prev = set()
    for b in range(1, 11):
        cur = set(enumerate_b_nested_common(gold_tree, b, 1))
        assert prev <= cur
        prev = cur


@pytest.mark.parametrize("b", [1, 2, 3])
@pytest.mark.parametrize("min_size", [1, 2])
def test_outputs_are_plain_pairs(b, min_size):
    """Leaves, P-node intervals and Q-scan runs all come out as exact
    (lo, hi) tuples."""
    rng = random.Random(77)
    seen = set()  # node kinds whose interval was yielded
    for _ in range(60):
        n = rng.randint(1, 10)
        tree = build_pqtree(core.normalize(random_unsigned_raw(rng, n, rng.randint(1, 4))))
        got = list(enumerate_b_nested_common(tree, b, min_size))
        assert all(type(x) is tuple and len(x) == 2 for x in got)
        got = set(got)
        kinds = {nd.interval: nd.kind for nd in tree.nodes}
        kinds.update((iv, "LEAF") for nd in tree.nodes for iv in child_intervals(nd) if iv.size() == 1)
        seen.update(kind for iv, kind in kinds.items() if iv in got)
    assert ("LEAF" in seen) == (min_size == 1) and "Q" in seen
    assert "P" in seen or b == 1  # a P-node has >= 3 children, so needs b >= 2


@pytest.mark.parametrize("b", [1, 2, 3])
def test_min_size_1_order_is_post_order_of_the_expanded_tree(common_corpus, b):
    """At min_size 1 the output follows a post-order walk of the tree with
    its leaves: each leaf's singleton, a P-node's interval when b-nested,
    and a Q-node's b-nested child runs in (start child, end child) order,
    every node after all of its children."""
    for pset in common_corpus:
        tree = build_pqtree(pset)
        nested = oracle.all_b_nested(oracle.all_common(pset), b)
        want = []
        stack = [(tree.root, False)]
        while stack:
            node, visited = stack.pop()
            if isinstance(node, core.Interval):  # a leaf
                want.append(node)
            elif not visited:
                stack.append((node, True))
                by_lo = {c.lo: c for c in node.children}
                stack.extend((by_lo.get(iv.lo, iv), False) for iv in reversed(child_intervals(node)))
            elif node.kind == "Q":
                want.extend(iv for iv in weak_intervals_of_qnode(node, include_full=True) if iv in nested)
            elif node.interval in nested:  # a P-node, or the stored leaf of n = 1
                want.append(node.interval)
        assert list(enumerate_b_nested_common(tree, b, 1)) == want, (pset.perms, b)


def _reversed_blocks_raw(rng: random.Random, n: int) -> list:
    """Identity and the identity with consecutive blocks of 1-3 reversed:
    a root Q-node over about n/2 children, dense in common intervals."""
    second = []
    while len(second) < n:
        s = min(rng.randint(1, 3), n - len(second))
        second.extend(range(len(second) + s, len(second), -1))
    return [list(range(1, n + 1)), second]


@pytest.mark.parametrize("shape", ["reversed-blocks-1200", "planted-1e4"])
def test_count_matches_enumerate_at_gate_scale(shape):
    """count equals the number enumerated and grows with b, at the sizes
    the benchmark and the scaling gate run."""
    if shape == "planted-1e4":
        raw = planted_raw(10**4, 4, 6, 8, random.Random(20_000))
    else:
        raw = _reversed_blocks_raw(random.Random(12), 1200)
    tree = build_pqtree(core.normalize(raw))
    prev = 0
    for b in (1, 2, 5, tree.n):
        counted = count_b_nested_common(tree, b, 2)
        assert counted == len(list(enumerate_b_nested_common(tree, b, 2)))
        assert counted >= prev
        prev = counted
