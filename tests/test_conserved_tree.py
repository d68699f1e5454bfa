"""Strong conserved intervals, frontier sets, inclusion tree, irreducibles."""
from __future__ import annotations

import random

import pytest

from bnest import core, oracle
from bnest._kernels import canonicalize, exact_bounds
from bnest.conserved_enum import count_b_nested_conserved
from bnest.conserved_tree import (
    ConservedTree,
    _conserved_generator,
    build_conserved_tree,
    irreducible_conserved_intervals,
)
from conftest import (
    GOLD_CONSERVED_RAW,
    canonical_bounds,
    generator_family,
    ivset,
    random_framed_raw,
    signed_inversions_raw,
    weak_conserved_intervals,
)

GOLD_TREE_TEXT = """\
S (1..9) F={1,4,5,9}
  S (2..3) F={2,3} L=(1,4)
  S (6..8) F={6,7,8} L=(5,9)"""

GOLD_IRREDUCIBLE = {(1, 4), (2, 3), (4, 5), (5, 9), (6, 7), (7, 8)}


def _walk(node):
    yield node
    for c in node.children:
        yield from _walk(c)


def test_golden_tree(gold_conserved_pset):
    tree = build_conserved_tree(gold_conserved_pset)
    assert tree.to_text() == GOLD_TREE_TEXT
    root = tree.root
    assert root.interval == core.Interval(1, 9)
    assert root.frontiers == (1, 4, 5, 9)
    assert len(root.children) == 2
    left, right = root.children
    assert left.interval == core.Interval(2, 3) and left.frontiers == (2, 3)
    assert right.interval == core.Interval(6, 8) and right.frontiers == (6, 7, 8)
    assert left.L_link == (1, 4) and right.L_link == (5, 9)
    assert root.L_link is None


def test_golden_irreducibles(gold_conserved_pset):
    tree = build_conserved_tree(gold_conserved_pset)
    assert set(irreducible_conserved_intervals(tree)) == ivset(
        GOLD_IRREDUCIBLE)


def test_golden_steps_cover_irreducibles(gold_conserved_pset):
    tree = build_conserved_tree(gold_conserved_pset)
    steps = set()
    for nd in tree.nodes:
        steps.update(nd.steps())
    assert steps == ivset(GOLD_IRREDUCIBLE)


def test_golden_weak_intervals(gold_conserved_pset):
    tree = build_conserved_tree(gold_conserved_pset)
    weak = set(weak_conserved_intervals(tree.root))
    assert weak == ivset({(1, 4), (4, 5), (5, 9), (1, 5), (4, 9)})
    assert core.Interval(1, 9) not in weak  # full pair excluded


def test_golden_membership(gold_conserved_pset):
    tree = build_conserved_tree(gold_conserved_pset)
    fam = oracle.all_conserved(gold_conserved_pset)
    assert generator_family(*_conserved_generator(gold_conserved_pset), 9) == fam
    assert count_b_nested_conserved(tree, tree.n, 1) == len(fam)


def test_all_positive_identity_tree():
    pset = core.normalize([[1, 2, 3, 4, 5]], signed=True)
    tree = build_conserved_tree(pset)
    assert tree.root.frontiers == (1, 2, 3, 4, 5)
    assert not tree.root.children
    assert count_b_nested_conserved(tree, tree.n, 1) == 15


def test_single_element_tree():
    tree = build_conserved_tree(core.normalize([[1]], signed=True))
    assert tree.root.interval == core.Interval(1, 1)
    assert count_b_nested_conserved(tree, 1, 1) == 1


def test_build_requires_frame():
    pset = core.normalize([[1, 2, 3], [3, 1, 2]], signed=True)
    with pytest.raises(core.BadFrame):
        build_conserved_tree(pset)


def test_unit_intervals_are_never_nodes():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 9)
        pset = core.normalize(random_framed_raw(rng, n, rng.randint(1, 3)), signed=True)
        tree = build_conserved_tree(pset)
        assert all(nd.size >= 2 for nd in tree.nodes)


def _assert_tree_invariants(tree: ConservedTree, fam: set, res) -> None:
    nodes = list(_walk(tree.root))
    ivs = [nd.interval for nd in nodes]
    assert len(set(ivs)) == len(ivs)
    assert set(ivs) == set(res.strong_conserved)
    regenerated = {iv for iv in fam if iv.size() == 1}
    all_steps = []
    for nd in nodes:
        assert nd.frontiers == res.frontier_sets[nd.interval]
        regenerated.add(nd.interval)
        regenerated.update(weak_conserved_intervals(nd))
        all_steps.extend(nd.steps())
        # children sit strictly inside exactly one frontier step
        for c in nd.children:
            lo, hi = c.L_link
            assert lo in nd.frontiers and hi in nd.frontiers
            step = core.Interval(lo, hi)
            assert step in nd.steps()
            assert step.strictly_contains(c.interval)
            others = [s for s in nd.steps()
                      if s != step and s.contains(c.interval)]
            assert not others
    # frontier steps are globally distinct and exactly the irreducibles
    assert len(all_steps) == len(set(all_steps))
    irr = {iv for iv in fam if iv.size() >= 2 and not any(
        core.Interval(iv.lo, m) in fam and core.Interval(k, iv.hi) in fam
        for m in range(iv.lo + 1, iv.hi)
        for k in range(iv.lo + 1, m + 1))}
    assert set(all_steps) == irr
    # completeness: nodes + weak pairs + singletons == the family
    assert regenerated == fam
    assert count_b_nested_conserved(tree, tree.n, 1) == len(fam)


def test_random_instances_match_oracle():
    rng = random.Random(607)
    for _ in range(120):
        n = rng.randint(2, 10)
        pset = core.normalize(random_framed_raw(rng, n, rng.randint(1, 4)), signed=True)
        tree = build_conserved_tree(pset)
        res = oracle.evaluate(pset, 1)
        _assert_tree_invariants(tree, set(res.conserved), res)


def test_membership_random():
    rng = random.Random(708)
    for _ in range(50):
        n = rng.randint(2, 9)
        pset = core.normalize(random_framed_raw(rng, n, rng.randint(1, 4)), signed=True)
        assert generator_family(*_conserved_generator(pset), n) == oracle.all_conserved(pset)


def test_generator_is_canonical():
    rng = random.Random(809)
    cases = [core.normalize([[1]], signed=True),
             core.normalize([[1, 2, 3, 4]], signed=True)]
    for _ in range(24):
        n = rng.randint(2, 64)
        cases.append(core.normalize(random_framed_raw(rng, n, rng.randint(2, 4)), signed=True))
    for _ in range(12):
        # arbitrary signed rows wrapped in sentinels
        n = rng.randint(1, 40)
        raw = [list(range(1, n + 1))]
        for _ in range(rng.randint(1, 3)):
            row = [v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), n)]
            raw.append(row)
        cases.append(core.apply_frame(core.normalize(raw, signed=True)))
    for pset in cases:
        assert _conserved_generator(pset) == canonical_bounds(oracle.all_conserved(pset), pset.n)


def _label_signs(perm) -> list:
    """The sign of each label 1..n of a signed permutation, in label order."""
    return [perm.signs[perm.positions[v] - 1] for v in range(1, perm.n + 1)]


def test_oriented_exact_bounds_are_exact():
    """exact_bounds with per-label orientation admits exactly the conserved
    pairs, before any canonicalizing, and never a pair whose ends carry
    different signs in some permutation."""
    rng = random.Random(910)
    cases = []
    for _ in range(30):
        n = rng.randint(8, 64)
        cases.append(core.normalize(
            signed_inversions_raw(rng, n, rng.randint(2, 4), rng.randint(1, n // 4)), signed=True))
    for _ in range(30):
        n = rng.randint(1, 62)
        raw = [list(range(1, n + 1))]
        for _ in range(rng.randint(1, 3)):
            raw.append([v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), n)])
        cases.append(core.apply_frame(core.normalize(raw, signed=True)))
    for pset in cases:
        n = pset.n
        rows = [perm.positions for perm in pset.perms]
        opens = [[s > 0 for s in _label_signs(perm)] for perm in pset.perms]
        fam = generator_family(*exact_bounds(rows, n, opens=opens), n)
        assert fam == {(iv.lo, iv.hi) for iv in oracle.all_conserved(pset)}
        for perm in pset.perms:
            sign = _label_signs(perm)
            assert all(sign[lo - 1] == sign[hi - 1] for lo, hi in fam)


def _doubled_generator(pset):
    """The conserved generator over the doubled alphabet: +v becomes the
    0-based pair (2v, 2v+1) and -v the pair (2v+1, 2v); (a..c) is conserved
    iff doubled (2a+1..2c) is common, and halving keeps both tests exact.
    A label at 0-based position p puts its pair at 1-based 2p+1, 2p+2."""
    n = pset.n
    rows = []
    for perm in pset.perms:
        row = [0] * (2 * n + 1)
        for p, (v, s) in enumerate(zip(perm.elements, perm.signs)):
            first, second = (2 * v - 1, 2 * v) if s > 0 else (2 * v, 2 * v - 1)
            row[first], row[second] = 2 * p + 1, 2 * p + 2
        rows.append(row)
    RD, LD = exact_bounds(rows, 2 * n)
    return canonicalize([r // 2 for r in RD[1::2]], [l // 2 for l in LD[0::2]], n)


@pytest.mark.parametrize("seed, n", [(1, 1500), (2, 1500), (3, 1500), (4, 10**4)])
def test_generator_matches_the_doubled_alphabet_at_scale(seed, n):
    """Above the oracle's reach, the oriented sweep on n labels equals the
    doubled-alphabet generator on the benchmark's model."""
    raw = signed_inversions_raw(random.Random(seed), n, 3, n // 14)
    pset = core.normalize(raw, signed=True)
    assert _conserved_generator(pset) == _doubled_generator(pset)
