"""Shared golden instances and random-instance builders.

Two goldens recur across the suite: a three-permutation unsigned set with a
P root over three Q children, and a two-permutation signed framed set whose
inclusion tree is a root with two children.  Expected families and counts
were frozen from the brute-force oracle.  The seeded 500-instance corpora
of the acceptance gate, the planted-nested instances of its scaling
criterion, and reference helpers that expand a PQ-tree node into its
children, leaves included, and list weak intervals and per-pair verdicts
straight from a tree, live here too.
"""
from __future__ import annotations

import random
from itertools import combinations_with_replacement

import pytest

from bnest import core

# Unsigned golden: P(1..9) over Q(1..4), Q(5..6), Q(7..9).
GOLD_COMMON_RAW = [
    [1, 2, 3, 4, 5, 6, 7, 8, 9],
    [4, 2, 3, 1, 7, 8, 9, 6, 5],
    [5, 6, 1, 3, 2, 4, 9, 8, 7],
]

# Whole common-interval family of GOLD_COMMON_RAW minus the singletons.
GOLD_COMMON_WIDE = {
    (2, 3), (1, 3), (2, 4), (1, 4), (5, 6), (7, 8), (8, 9), (7, 9), (1, 9),
}

# Signed framed golden: root (1..9) F={1,4,5,9}, children (2..3) and (6..8).
GOLD_CONSERVED_RAW = [
    [1, 2, 3, 4, 5, 6, 7, 8, 9],
    [1, -3, -2, 4, 5, -8, -7, -6, 9],
]

# Whole conserved family of GOLD_CONSERVED_RAW minus the singletons.
GOLD_CONSERVED_WIDE = {
    (2, 3), (6, 7), (7, 8), (6, 8), (1, 4), (4, 5), (5, 9), (1, 5), (4, 9), (1, 9),
}


def ivset(pairs) -> set:
    return {core.Interval(lo, hi) for lo, hi in pairs}


def singletons(n: int) -> set:
    return {core.Interval(i, i) for i in range(1, n + 1)}


def generator_family(R: list, L: list, n: int) -> set:
    """The (lo, hi) pairs, 1-based, that the 0-based generator (R, L) admits:
    (i..j) is a member iff j <= R[i] and L[j] <= i."""
    return {(i + 1, j + 1) for i, j in combinations_with_replacement(range(n), 2)
            if j <= R[i] and L[j] <= i}


def canonical_bounds(fam: set, n: int) -> tuple:
    """(R, L), 0-based, read off a whole family that holds every singleton:
    R[i] the furthest right end from i, L[j] the furthest left end from j."""
    R = list(range(n))
    L = list(range(n))
    for iv in fam:
        R[iv.lo - 1] = max(R[iv.lo - 1], iv.hi - 1)
        L[iv.hi - 1] = min(L[iv.hi - 1], iv.lo - 1)
    return R, L


def random_unsigned_raw(rng: random.Random, n: int, K: int) -> list:
    """K permutations of {1..n}, first one the identity.

    Mixes three shapes so the trees exercised are not all flat: uniform
    shuffles, near-identity instances built from short reversals (these are
    dense in common intervals), and instances sharing a nested block that
    stays contiguous in every permutation.
    """
    raw = [list(range(1, n + 1))]
    style = rng.randrange(3)
    for _ in range(K - 1):
        if style == 0 or n < 4:
            p = list(range(1, n + 1))
            rng.shuffle(p)
        elif style == 1:
            p = list(range(1, n + 1))
            for _ in range(rng.randint(1, max(1, n // 2))):
                i = rng.randrange(n - 1)
                j = min(n, i + rng.randint(2, 3))
                p[i:j] = reversed(p[i:j])
        else:
            lo = rng.randint(1, n - 2)
            hi = rng.randint(lo + 1, n - 1)
            inner = list(range(lo, hi + 1))
            outer = [v for v in range(1, n + 1) if not lo <= v <= hi]
            rng.shuffle(inner)
            units = [[v] for v in outer] + [inner]
            rng.shuffle(units)
            p = [v for u in units for v in u]
        raw.append(p)
    return raw


def planted_raw(n: int, K: int, depth: int, span: int, rng: random.Random) -> list:
    """Nested value-range blocks, realized as contiguous runs in every
    permutation so each block is a strong common interval."""
    outer = min(max(span, depth + 1), n - 1)
    sizes = [outer - t for t in range(depth) if outer - t >= 2]
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


def random_framed_raw(rng: random.Random, n: int, K: int) -> list:
    """K signed permutations over {1..n}, each starting +1 and ending +n.

    Half the rows come from uniform interior shuffles with random signs, the
    other half from chains of interior reversals-with-negation applied to
    the identity; the latter keep many conserved intervals alive.
    """
    raw = [list(range(1, n + 1))]
    for _ in range(K - 1):
        if rng.random() < 0.5 or n < 4:
            mid = list(range(2, n))
            rng.shuffle(mid)
            row = [1] + [v * rng.choice((1, -1)) for v in mid] + [n]
        else:
            row = list(range(1, n + 1))
            for _ in range(rng.randint(1, 3)):
                i = rng.randint(1, n - 2)
                j = rng.randint(i, n - 2)
                row[i:j + 1] = [-v for v in reversed(row[i:j + 1])]
        raw.append(row)
    return raw


def signed_inversions_raw(rng: random.Random, n: int, K: int, count: int) -> list:
    """The identity and K-1 rows each carrying `count` short (1-6 element)
    reversals-with-negation strictly inside the frame +1 ... +n."""
    raw = [list(range(1, n + 1))]
    for _ in range(K - 1):
        row = list(range(1, n + 1))
        for _ in range(count):
            length = rng.randint(1, 6)
            a = rng.randint(1, n - 1 - length)
            row[a:a + length] = [-v for v in reversed(row[a:a + length])]
        raw.append(row)
    return raw


COMMON_CORPUS_SEED = 0xC0FFEE
CONSERVED_CORPUS_SEED = 0xBEEF


@pytest.fixture(scope="session")
def common_corpus() -> list:
    rng = random.Random(COMMON_CORPUS_SEED)
    out = []
    for _ in range(500):
        n = rng.randint(1, 12)
        out.append(core.normalize(random_unsigned_raw(rng, n, rng.randint(1, 5))))
    return out


@pytest.fixture(scope="session")
def conserved_corpus() -> list:
    rng = random.Random(CONSERVED_CORPUS_SEED)
    out = []
    for _ in range(500):
        n = rng.randint(2, 10)
        out.append(core.normalize(
            random_framed_raw(rng, n, rng.randint(1, 4)), signed=True))
    return out


def child_intervals(node) -> list:
    """A PQ-tree node's children in order, as intervals, leaves included.

    A tree stores internal nodes only; a leaf child is a label that none of
    the node's stored children covers.  A stored leaf (the root of n = 1)
    has no children.  Stored children out of order, overlapping or reaching
    outside the node come out as they are, so a partition check on the
    result still sees them.
    """
    out = []
    pos = node.lo
    for c in node.children:
        out.extend(core.Interval(v, v) for v in range(pos, c.lo))
        out.append(core.Interval(c.lo, c.hi))
        pos = c.hi + 1
    if node.lo < node.hi:
        out.extend(core.Interval(v, v) for v in range(pos, node.hi + 1))
    return out


def weak_intervals_of_qnode(node, include_full: bool = False) -> list:
    """Unions of >= 2 consecutive children of a Q-node, sorted by (lo, hi).

    The union of all children equals the node's own (strong) interval; it is
    excluded unless include_full is set.
    """
    if node.kind != "Q":
        raise ValueError(f"not a Q-node: {node.kind} {node.interval}")
    kids = child_intervals(node)
    m = len(kids)
    out = []
    for a in range(m):
        for b in range(a + 1, m):
            if not include_full and a == 0 and b == m - 1:
                continue
            out.append(core.Interval(kids[a].lo, kids[b].hi))
    out.sort()
    return out


def weak_conserved_intervals(node):
    """Frontier pairs (f_i..f_j), i < j, excluding the node interval itself.

    Across all nodes of a tree this yields every weak conserved interval of
    size >= 2 exactly once.
    """
    f = node.frontiers
    m = len(f)
    for i in range(m):
        for j in range(i + 1, m):
            if i == 0 and j == m - 1:
                continue
            yield core.Interval(f[i], f[j])


def step_kinds(node, b: int) -> list:
    """Per frontier step of a node of an annotated conserved tree: "plain"
    (size <= b+1), "good" (an acceptable gap) or "bad"."""
    f = node.frontiers
    return ["plain" if f[t + 1] - f[t] <= b else "good" if b >= node.tau[t] else "bad"
            for t in range(len(f) - 1)]


def weak_b_nested(node, b: int) -> dict:
    """Verdict for every frontier pair of a node of an annotated conserved
    tree, keyed by index pair.

    (f_i..f_j) is b-nested iff steps i..j-1 hold no bad gap and at most one
    gap.  Includes the full pair (0, |F|-1), whose verdict is b >= bstar.
    """
    kinds = step_kinds(node, b)
    m = len(node.frontiers)
    bad = [0] * m  # prefix counts over steps
    good = [0] * m
    for t in range(m - 1):
        bad[t + 1] = bad[t] + (kinds[t] == "bad")
        good[t + 1] = good[t] + (kinds[t] == "good")
    out = {}
    for i in range(m):
        for j in range(i + 1, m):
            out[(i, j)] = bad[j] == bad[i] and good[j] - good[i] <= 1
    return out


@pytest.fixture
def gold_common_pset() -> core.PermutationSet:
    return core.normalize(GOLD_COMMON_RAW)


@pytest.fixture
def gold_conserved_pset() -> core.PermutationSet:
    return core.normalize(GOLD_CONSERVED_RAW, signed=True)
