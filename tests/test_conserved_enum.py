"""Gap classification, localized scans, and conserved closed-form counts."""
from __future__ import annotations

import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnest import core, oracle
from bnest.common_enum import ScanStats
from bnest.conserved_enum import (
    annotate_conserved,
    count_b_nested_conserved,
    enumerate_b_nested_conserved,
    node_count_parts,
)
from bnest.conserved_tree import build_conserved_tree
from conftest import (
    ivset,
    random_framed_raw,
    signed_inversions_raw,
    step_kinds,
    weak_b_nested,
)

GOLD_ORDER_B2_MIN2 = [
    (2, 3), (6, 7), (7, 8), (6, 8), (1, 4), (1, 5), (4, 5), (4, 9), (5, 9)]
GOLD_SET_B1_MIN2 = {(2, 3), (6, 7), (7, 8), (6, 8), (4, 5)}


@pytest.fixture
def gold_tree(gold_conserved_pset):
    return build_conserved_tree(gold_conserved_pset)


def test_golden_enumeration(gold_tree):
    got = list(enumerate_b_nested_conserved(gold_tree, 2, 2))
    assert got == [core.Interval(lo, hi) for lo, hi in GOLD_ORDER_B2_MIN2]
    assert set(enumerate_b_nested_conserved(gold_tree, 1, 2)) == ivset(GOLD_SET_B1_MIN2)


def test_golden_counts(gold_tree):
    assert count_b_nested_conserved(gold_tree, 2, 2) == 9
    assert count_b_nested_conserved(gold_tree, 1, 2) == 5
    assert count_b_nested_conserved(gold_tree, 2, 1) == 18
    assert count_b_nested_conserved(gold_tree, 1, 1) == 14


def test_golden_gap_classification(gold_tree):
    root = gold_tree.root
    annotate_conserved(gold_tree)
    assert step_kinds(root, 2) == ["good", "plain", "good"]
    assert root.bstar > 2  # two good gaps
    assert step_kinds(root, 1) == ["bad", "plain", "bad"]
    for child in root.children:
        assert child.bstar == 1  # b-nested at b = 1 and 2


def test_golden_count_parts(gold_tree):
    annotate_conserved(gold_tree)
    gap_terms, run_terms = node_count_parts(gold_tree.root, 2)
    assert gap_terms == [2, 2] and run_terms == [1]
    gap_terms, run_terms = node_count_parts(gold_tree.root, 1)
    assert gap_terms == [] and run_terms == [1]


def test_golden_weak_verdicts(gold_tree):
    annotate_conserved(gold_tree)
    verdicts = weak_b_nested(gold_tree.root, 2)
    assert verdicts == {
        (0, 1): True, (0, 2): True, (0, 3): False,
        (1, 2): True, (1, 3): True, (2, 3): True}


def test_annotate_rejects_bad_b(gold_tree):
    for b in (0, -1):
        with pytest.raises(ValueError):
            count_b_nested_conserved(gold_tree, b)
        with pytest.raises(ValueError):
            next(enumerate_b_nested_conserved(gold_tree, b))


def test_min_size_validation(gold_tree):
    with pytest.raises(ValueError):
        count_b_nested_conserved(gold_tree, 1, 0)


def test_all_positive_identity_everything_nested():
    for n in (1, 2, 6, 12):
        pset = core.normalize([list(range(1, n + 1))], signed=True)
        tree = build_conserved_tree(pset)
        for b in (1, 2):
            assert count_b_nested_conserved(tree, b, 1) == n * (n + 1) // 2
            got = set(enumerate_b_nested_conserved(tree, b, 1))
            assert got == set(combinations_with_replacement(range(1, n + 1), 2))


@pytest.mark.parametrize("b", [1, 2, 3])
@pytest.mark.parametrize("min_size", [1, 2])
def test_scan_work_is_steps_plus_scan_output(conserved_corpus, b, min_size):
    """The scan work is exactly one step per frontier step plus one per
    frontier pair a scan yields; units and node intervals are not scan
    work."""
    for pset in conserved_corpus:
        tree = build_conserved_tree(pset)
        stats = ScanStats()
        got = list(enumerate_b_nested_conserved(tree, b, min_size, stats=stats))
        steps = sum(len(nd.frontiers) - 1 for nd in tree.nodes)
        unscanned = {(nd.lo, nd.hi) for nd in tree.nodes} | {(i, i) for i in range(1, tree.n + 1)}
        assert stats.iterations == steps + sum(iv not in unscanned for iv in got)


def test_monotone_in_b(gold_tree):
    prev = set()
    for b in range(1, 11):
        cur = set(enumerate_b_nested_conserved(gold_tree, b, 1))
        assert prev <= cur
        prev = cur


def test_random_instances_match_oracle():
    rng = random.Random(909)
    for _ in range(150):
        n = rng.randint(2, 10)
        pset = core.normalize(random_framed_raw(rng, n, rng.randint(1, 4)), signed=True)
        tree = build_conserved_tree(pset)
        fam = oracle.all_conserved(pset)
        for b in (1, 2, 3):
            expected = oracle.all_b_nested(fam, b)
            stats = ScanStats()
            got = list(enumerate_b_nested_conserved(tree, b, 1, stats=stats))
            assert len(got) == len(set(got))
            assert set(got) == expected
            assert count_b_nested_conserved(tree, b, 1) == len(expected)
            wide = {iv for iv in expected if iv.size() >= 2}
            assert set(enumerate_b_nested_conserved(tree, b, 2)) == wide
            assert count_b_nested_conserved(tree, b, 2) == len(wide)
            assert stats.iterations <= 4 * (n + len(got))


@given(st.integers(2, 12), st.integers(1, 5), st.integers(1, 5), st.integers(3, 6),
       st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_enumerate_min_size_matches_oracle(n, K, b, min_size, seed):
    raw = random_framed_raw(random.Random(seed), n, K)
    pset = core.normalize(raw, signed=True)
    tree = build_conserved_tree(pset)
    expected = {iv for iv in oracle.all_b_nested(oracle.all_conserved(pset), b)
                if iv.size() >= min_size}
    got = list(enumerate_b_nested_conserved(tree, b, min_size))
    assert len(got) == len(set(got))
    assert set(got) == expected


def test_dichotomy_over_all_conserved_intervals():
    """Every conserved interval is either b-nested or fails the gap test,
    per the per-pair verdict of its covering node."""
    rng = random.Random(1010)
    for _ in range(60):
        n = rng.randint(2, 9)
        pset = core.normalize(random_framed_raw(rng, n, rng.randint(1, 4)), signed=True)
        tree = build_conserved_tree(pset)
        fam = oracle.all_conserved(pset)
        annotate_conserved(tree)
        for b in (1, 2):
            expected = oracle.all_b_nested(fam, b)
            for nd in tree.nodes:
                verdicts = weak_b_nested(nd, b)
                for (i, j), ok in verdicts.items():
                    iv = core.Interval(nd.frontiers[i], nd.frontiers[j])
                    assert ok == (iv in expected), (iv, b)


@pytest.mark.parametrize("b", [1, 2, 3])
@pytest.mark.parametrize("min_size", [1, 2])
def test_outputs_are_plain_pairs(b, min_size):
    """Unit intervals, frontier pairs and node intervals all come out as
    exact (lo, hi) tuples."""
    rng = random.Random(78)
    units = pairs = nodes = 0
    for _ in range(60):
        n = rng.randint(2, 10)
        pset = core.normalize(random_framed_raw(rng, n, rng.randint(1, 4)), signed=True)
        tree = build_conserved_tree(pset)
        got = list(enumerate_b_nested_conserved(tree, b, min_size))
        assert all(type(x) is tuple and len(x) == 2 for x in got)
        node_ivs = {nd.interval for nd in tree.nodes}
        for lo, hi in got:
            if (lo, hi) in node_ivs:
                nodes += 1
            elif lo == hi:
                units += 1
            else:
                pairs += 1
    assert (units > 0) == (min_size == 1) and nodes > 0 and pairs > 0


def test_count_matches_enumerate_at_gate_scale():
    """count equals the number enumerated and grows with b on a framed
    n = 1500 instance of short signed inversions."""
    raw = signed_inversions_raw(random.Random(31), 1500, 3, 110)
    tree = build_conserved_tree(core.normalize(raw, signed=True))
    prev = 0
    for b in (1, 2, 5, tree.n):
        counted = count_b_nested_conserved(tree, b, 2)
        assert counted == len(list(enumerate_b_nested_conserved(tree, b, 2)))
        assert counted >= prev
        prev = counted
