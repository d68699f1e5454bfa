"""Invariants past the oracle's n <= 64, at n = 1e4: strong intervals are
laminar, sampled outputs are members of the family, and on one tree the
count equals the number enumerated at every b of a sweep.  The planted
instances used here and by acceptance criterion 8 are pinned by hash, and
their nested blocks are checked to show in the tree."""
from __future__ import annotations

import hashlib
import random

import pytest

from bnest import core
from bnest.common_enum import count_b_nested_common, enumerate_b_nested_common
from bnest.conserved_enum import count_b_nested_conserved, enumerate_b_nested_conserved
from bnest.conserved_tree import build_conserved_tree
from bnest.pqtree import build_pqtree
from conftest import planted_raw, signed_inversions_raw

SWEEP = range(1, 17)
SAMPLED = 64


def _planted_common():
    pset = core.normalize(planted_raw(10**4, 4, 6, 8, random.Random(20_001)))
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


# sha256 of the text ("a b c\n" per row) of planted_raw(n, 4, 6, 8,
# random.Random(10_000 + n)), criterion 8's instances, as first generated.
CRITERION_8_SHA256 = {
    10**3: "7ce4073a8cec96638d169f6ff3020abe48c8dd2465121b071ca2220efbc960b8",
    10**4: "e19e9a07e805ff56303e2be6f427e2a17d1544963f7a2b2770205241048fa60d",
    10**5: "b9275188ab417c239e74bee112bb122fd894e42ba57ac6e5831013b4a28f5cfa",
}


def test_planted_raw_reproduces_criterion_8_instances():
    for n, want in CRITERION_8_SHA256.items():
        raw = planted_raw(n, 4, 6, 8, random.Random(10_000 + n))
        text = "".join(" ".join(map(str, row)) + "\n" for row in raw)
        assert hashlib.sha256(text.encode()).hexdigest() == want, n


def test_planted_raw_plants_nested_levels():
    """The internal nodes reach depth >= 3: the root plus at least two planted levels."""
    for n, K, depth, span, seed in ((9, 3, 2, 3, 3), (10**3, 4, 6, 8, 11_000), (10**4, 4, 6, 8, 20_000)):
        tree = build_pqtree(core.normalize(planted_raw(n, K, depth, span, random.Random(seed))))
        best = 0
        stack = [(tree.root, 1)]
        while stack:
            node, d = stack.pop()
            assert node.size >= 2  # the tree stores internal nodes only
            best = max(best, d)
            stack.extend((c, d + 1) for c in node.children)
        assert best >= 3, (n, seed)
