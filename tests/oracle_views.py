"""Test-only views of the brute-force oracle: the maximal frontier set of
a conserved interval, and `evaluate`, which materializes every definition
at once for one instance.  No request runs them, so they live beside the
tests rather than in `bnest.oracle`.
"""
from __future__ import annotations

from operator import itemgetter

from bnest.core import Interval, PermutationSet, _Fields
from bnest.oracle import MAX_N, all_b_nested, all_common, all_conserved, strong_of


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
