"""The generator's row sweep, against the definition of Sup."""
from __future__ import annotations

import itertools
import random

from bnest._kernels import _sup


def _sup_by_definition(row, i, side) -> int:
    """Sup(i) from the `_kernels` docstring: the run of positions around
    row[i] holding labels >= i, cut at row[i] on the shut-out side (the
    left one where side[i] is true), and the largest j with labels i..j
    all inside it."""
    n = len(row)
    label_at = {p: label for label, p in enumerate(row)}
    lo = hi = row[i]
    if side is None or not side[i]:
        while lo > 1 and label_at[lo - 1] >= i:
            lo -= 1
    if side is None or side[i]:
        while hi < n and label_at[hi + 1] >= i:
            hi += 1
    inside = {label_at[p] for p in range(lo, hi + 1)}
    j = i
    while j + 1 in inside:
        j += 1
    return j


def _row(order) -> list:
    """label -> 1-based position, from the labels in position order."""
    row = [0] * len(order)
    for p, label in enumerate(order, 1):
        row[label] = p
    return row


def _zigzag(n) -> list:
    """..., 5, 3, 1, 0, 2, 4, ...: label 0 lands between 1 and 2, and every
    merge before it leaves the list linked through a dead minimum, so the
    last step walks past all n - 1 of them."""
    return list(range(n - 1 - n % 2, 0, -2)) + list(range(0, n, 2))


def test_sup_matches_its_definition():
    """bound[i] ends at min(start, Sup(i)), with and without orientation, on
    every row up to n = 6 and on seeded rows up to n = 60: the identity and
    its reverse (every step merges), zigzags and shuffles."""
    rng = random.Random(2701)
    orders = [list(p) for n in range(1, 7) for p in itertools.permutations(range(n))]
    for n in (7, 8, 31, 60):
        orders += [list(range(n)), list(range(n))[::-1], _zigzag(n), _zigzag(n)[::-1]]
    for _ in range(400):
        order = list(range(rng.randint(1, 60)))
        rng.shuffle(order)
        orders.append(order)
    for order in orders:
        row = _row(order)
        n = len(row)
        for side in (None, [rng.random() < 0.5 for _ in range(n)]):
            start = [rng.randint(0, n - 1) for _ in range(n)]
            bound = start[:]
            _sup(row, side, bound)
            expected = [min(s, _sup_by_definition(row, i, side)) for i, s in enumerate(start)]
            assert bound == expected, (order, side, start)
