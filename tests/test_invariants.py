"""Invariants past the oracle's n <= 64, at n = 1e4: strong intervals are
laminar, sampled outputs are members of the family, and on one tree the
count equals the number enumerated at every b of a sweep."""
from __future__ import annotations

import random

import pytest

from bnest import cli, core
from bnest.common_enum import count_b_nested_common, enumerate_b_nested_common
from bnest.conserved_enum import count_b_nested_conserved, enumerate_b_nested_conserved
from bnest.conserved_tree import build_conserved_tree
from bnest.pqtree import build_pqtree
from conftest import signed_inversions_raw

SWEEP = range(1, 17)
SAMPLED = 64


def _planted_common():
    pset = core.normalize(cli._planted_raw(10**4, 4, 6, 8, random.Random(20_001)))
    return (pset, build_pqtree(pset), core.is_common_interval,
            count_b_nested_common, enumerate_b_nested_common)


def _inversions_conserved():
    raw = signed_inversions_raw(random.Random(32), 10**4, 3, 2500)
    pset = core.normalize(raw, signed=True)
    return (pset, build_conserved_tree(pset), core.is_conserved_interval,
            count_b_nested_conserved, enumerate_b_nested_conserved)


@pytest.fixture(scope="module", params=["planted-common-1e4", "inversions-conserved-1e4"])
def instance(request):
    return _planted_common() if request.param.startswith("planted") else _inversions_conserved()


def test_strong_intervals_are_laminar(instance):
    _, tree, *_ = instance
    ivs = sorted((nd.interval for nd in tree.nodes), key=lambda iv: (iv.lo, -iv.hi))
    open_ = []  # enclosing intervals, innermost last
    for lo, hi in ivs:
        while open_ and open_[-1][1] < lo:
            open_.pop()
        assert not open_ or hi <= open_[-1][1], ((lo, hi), open_[-1])
        open_.append((lo, hi))
    assert len(set(ivs)) == len(ivs)


def test_sweep_count_matches_enumerate_and_members(instance):
    pset, tree, member, count, enumerate_ = instance
    seen = set()
    prev = 0
    for b in SWEEP:
        got = list(enumerate_(tree, b, 2))
        counted = count(tree, b, 2)
        assert counted == len(got), b
        assert counted >= prev, b
        prev = counted
        seen.update(got)
    assert len(seen) > 1
    for iv in random.Random(7).sample(sorted(seen), min(SAMPLED, len(seen))):
        assert member(pset, iv), iv
