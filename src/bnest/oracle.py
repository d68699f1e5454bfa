"""Brute-force reference implementations used as ground truth in tests.

Everything here works directly from the definitions, with no shared machinery
beyond `core`'s positional membership tests.  Nothing is optimized; the guard
`MAX_N` keeps accidental quadratic-to-quartic blowups out of test runs.  The
CLI exposes these through the oracle-check action so any instance small enough
can be cross-checked end to end.
"""
from __future__ import annotations

from operator import itemgetter

from .core import (
    Interval,
    PermutationSet,
    _Fields,
    is_common_interval,
    is_conserved_interval,
)

MAX_N = 64


class BoundExceeded(ValueError):
    def __init__(self, n: int, bound: int):
        super().__init__(
            "oracle refuses n=%d (> %d); pass a higher bound explicitly" % (n, bound)
        )


def _guard(pset: PermutationSet, bound: int):
    if pset.n > bound:
        raise BoundExceeded(pset.n, bound)


def all_common(pset: PermutationSet, bound: int = MAX_N) -> set:
    """Every interval whose label set is consecutive in all permutations."""
    _guard(pset, bound)
    out = set()
    for lo in range(1, pset.n + 1):
        for hi in range(lo, pset.n + 1):
            iv = Interval(lo, hi)
            if is_common_interval(pset, iv):
                out.add(iv)
    return out


def all_conserved(pset: PermutationSet, bound: int = MAX_N) -> set:
    """Every unit interval, plus every common interval delimited by
    +lo ... +hi or -hi ... -lo in each permutation."""
    _guard(pset, bound)
    out = set()
    for lo in range(1, pset.n + 1):
        for hi in range(lo, pset.n + 1):
            iv = Interval(lo, hi)
            if is_conserved_interval(pset, iv):
                out.add(iv)
    return out


def all_b_nested(family: set, b: int) -> set:
    """The b-nested members of an interval family, by the recursive rule.

    An interval is b-nested when it is a unit interval, or when it strictly
    contains a b-nested member of the family of size at least its own size
    minus b.  Dynamic programming by increasing size makes the recursion
    well-founded: every candidate witness is strictly smaller.
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    members = sorted(family, key=lambda iv: (iv.size(), iv.lo))
    nested = set()
    for iv in members:
        if iv.size() == 1:
            nested.add(iv)
            continue
        need = iv.size() - b
        for other in members:
            if other.size() >= iv.size():
                break
            if (
                other in nested
                and other.size() >= need
                and iv.strictly_contains(other)
            ):
                nested.add(iv)
                break
    return nested


def strong_of(family: set) -> set:
    """Members that overlap no other member (strict partial intersection).

    Unit intervals are never reported strong, whatever the family.
    """
    members = list(family)
    out = set()
    for iv in members:
        if iv.size() < 2:
            continue
        if not any(iv.overlaps(other) for other in members):
            out.add(iv)
    return out


def frontier_set_of(family: set, iv: Interval) -> list:
    """The maximal set of frontiers of iv within a conserved family.

    An element f qualifies when (lo..f) and (f..hi) are both in the family.
    All pairwise intervals between qualifying elements are then members too,
    because two valid frontier sets always merge into a valid one; the
    all-pairs check below asserts that closure instead of assuming it.
    """
    lo, hi = iv.lo, iv.hi
    fs = [
        f
        for f in range(lo, hi + 1)
        if Interval(lo, f) in family and Interval(f, hi) in family
    ]
    for i, f in enumerate(fs):
        for g in fs[i + 1 :]:
            if Interval(f, g) not in family:
                raise AssertionError(
                    "frontier closure violated at (%d..%d) inside %s" % (f, g, iv)
                )
    return fs


class OracleResult(_Fields):
    """Every view `evaluate` materializes, as an immutable tuple of six
    frozensets of Intervals and the frontier_sets dict."""

    __slots__ = ()

    def __new__(cls, common, conserved, b_nested_common, b_nested_conserved,
                strong_common, strong_conserved, frontier_sets):
        return tuple.__new__(cls, (common, conserved, b_nested_common, b_nested_conserved,
                                   strong_common, strong_conserved, frontier_sets))

    (common, conserved, b_nested_common, b_nested_conserved,
     strong_common, strong_conserved, frontier_sets) = map(property, map(itemgetter, range(7)))


def evaluate(pset: PermutationSet, b: int, bound: int = MAX_N) -> OracleResult:
    """Materialize every definition at once for one instance."""
    common = all_common(pset, bound)
    if pset.signed:
        conserved = all_conserved(pset, bound)
    else:
        conserved = set()
    strong_conserved = strong_of(conserved)
    # Unit common intervals overlap nothing, so they are strong too: the
    # PQ-tree's leaves, implicit in its nodes' children.
    strong_common = strong_of(common) | {iv for iv in common if iv.size() == 1}
    return OracleResult(
        common=frozenset(common),
        conserved=frozenset(conserved),
        b_nested_common=frozenset(all_b_nested(common, b)),
        b_nested_conserved=frozenset(all_b_nested(conserved, b)) if conserved else frozenset(),
        strong_common=frozenset(strong_common),
        strong_conserved=frozenset(strong_conserved),
        frontier_sets={
            iv: tuple(frontier_set_of(conserved, iv)) for iv in strong_conserved
        },
    )
