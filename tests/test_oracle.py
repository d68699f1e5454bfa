"""Brute-force reference: families, b-nested closure, strong members, frontiers.

Expected families here were frozen by exhaustive hand-checkable runs; the
rest of the suite treats this module as ground truth, so its own tests lean
on closed-form laws and cross-definitional consistency.
"""
from __future__ import annotations

import random
from itertools import combinations_with_replacement

import pytest

from bnest import core, oracle
from oracle_views import OracleResult, evaluate, frontier_set_of
from conftest import (
    GOLD_COMMON_RAW,
    GOLD_COMMON_WIDE,
    GOLD_CONSERVED_WIDE,
    ivset,
    random_framed_raw,
    random_unsigned_raw,
    singletons,
)


def test_all_common_golden(gold_common_pset):
    assert oracle.all_common(gold_common_pset) == ivset(GOLD_COMMON_WIDE) | singletons(9)


def test_all_common_identity():
    for n in (1, 2, 5, 9):
        pset = core.normalize([list(range(1, n + 1))])
        fam = oracle.all_common(pset)
        assert len(fam) == n * (n + 1) // 2


def test_all_common_identical_copies():
    one = core.normalize([[4, 1, 3, 2]])
    three = core.normalize([[4, 1, 3, 2]] * 3)
    assert oracle.all_common(one) == oracle.all_common(three)


def test_all_conserved_golden(gold_conserved_pset):
    assert oracle.all_conserved(gold_conserved_pset) == (
        ivset(GOLD_CONSERVED_WIDE) | singletons(9))


def test_all_conserved_tiny():
    pset = core.normalize([[1, 2]], signed=True)
    assert oracle.all_conserved(pset) == ivset({(1, 1), (2, 2), (1, 2)})


def test_all_conserved_all_positive_identical():
    pset = core.normalize([[1, 2, 3, 4], [1, 2, 3, 4]], signed=True)
    assert oracle.all_conserved(pset) == ivset(combinations_with_replacement(range(1, 5), 2))


def test_bound_guard():
    pset = core.normalize([list(range(1, 70))])
    with pytest.raises(oracle.BoundExceeded):
        oracle.all_common(pset)
    assert len(oracle.all_common(pset, bound=70)) == 69 * 70 // 2


def test_b_nested_golden_counts(gold_common_pset):
    fam = oracle.all_common(gold_common_pset)
    assert len(oracle.all_b_nested(fam, 1)) == 17  # (1..9) excluded
    assert len(oracle.all_b_nested(fam, 5)) == 18  # (1..9) admitted via (1..4)


def test_b_nested_golden_membership(gold_common_pset):
    fam = oracle.all_common(gold_common_pset)
    nested1 = oracle.all_b_nested(fam, 1)
    assert core.Interval(1, 9) not in nested1
    assert nested1 | {core.Interval(1, 9)} == oracle.all_b_nested(fam, 5)


def test_b_nested_large_b_keeps_everything():
    for raw in ([[1, 2, 3, 4, 5]], GOLD_COMMON_RAW):
        fam = oracle.all_common(core.normalize(raw))
        n = max(iv.hi for iv in fam)
        assert oracle.all_b_nested(fam, n) == fam


def test_b_nested_monotone_in_b():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 9)
        pset = core.normalize(random_unsigned_raw(rng, n, rng.randint(1, 4)))
        fam = oracle.all_common(pset)
        prev = set()
        for b in range(1, n + 2):
            cur = oracle.all_b_nested(fam, b)
            assert prev <= cur <= fam
            prev = cur


def test_conserved_subset_of_common():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 9)
        raw = random_framed_raw(rng, n, rng.randint(1, 4))
        signed = core.normalize(raw, signed=True)
        unsigned = core.normalize([[abs(v) for v in row] for row in raw])
        assert oracle.all_conserved(signed) <= oracle.all_common(unsigned)


def test_strong_of_golden(gold_conserved_pset):
    fam = oracle.all_conserved(gold_conserved_pset)
    assert oracle.strong_of(fam) == ivset({(1, 9), (2, 3), (6, 8)})


def test_strong_of_never_reports_singletons():
    fam = ivset(combinations_with_replacement(range(1, 6), 2))
    assert all(iv.size() >= 2 for iv in oracle.strong_of(fam))


def test_frontier_set_golden(gold_conserved_pset):
    fam = oracle.all_conserved(gold_conserved_pset)
    assert frontier_set_of(fam, core.Interval(1, 9)) == [1, 4, 5, 9]
    assert frontier_set_of(fam, core.Interval(2, 3)) == [2, 3]
    assert frontier_set_of(fam, core.Interval(6, 8)) == [6, 7, 8]


def test_frontier_set_is_maximal():
    """Adding any leftover element must break the all-pairs membership rule."""
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randint(2, 8)
        pset = core.normalize(random_framed_raw(rng, n, rng.randint(1, 3)), signed=True)
        fam = oracle.all_conserved(pset)
        for iv in oracle.strong_of(fam):
            fs = frontier_set_of(fam, iv)
            assert fs[0] == iv.lo and fs[-1] == iv.hi
            # every pair of frontiers spans a conserved interval
            for a in fs:
                for c in fs:
                    if a < c:
                        assert core.Interval(a, c) in fam
            for extra in range(iv.lo + 1, iv.hi):
                if extra in fs:
                    continue
                assert (core.Interval(iv.lo, extra) not in fam
                        or core.Interval(extra, iv.hi) not in fam)


def test_evaluate_bundles_every_view(gold_conserved_pset):
    res = evaluate(gold_conserved_pset, 2)
    assert evaluate(gold_conserved_pset, 2) == res
    views = ("common", "conserved", "b_nested_common", "b_nested_conserved",
             "strong_common", "strong_conserved", "frontier_sets")
    assert OracleResult(**{v: getattr(res, v) for v in views}) == res
    for name in views + ("extra",):
        with pytest.raises(AttributeError):
            setattr(res, name, frozenset())
    assert res.conserved == ivset(GOLD_CONSERVED_WIDE) | singletons(9)
    assert res.strong_conserved == ivset({(1, 9), (2, 3), (6, 8)})
    assert res.frontier_sets[core.Interval(1, 9)] == (1, 4, 5, 9)
    assert core.Interval(1, 9) not in res.b_nested_conserved
    assert core.Interval(1, 5) in res.b_nested_conserved
    # singletons are strong common intervals even though never strong conserved
    assert core.Interval(1, 1) in res.strong_common
    assert core.Interval(1, 1) not in res.strong_conserved
