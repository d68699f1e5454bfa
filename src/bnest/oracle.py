"""Brute-force reference implementations used as ground truth in tests.

Everything here works directly from the definitions, with no shared machinery
beyond `core`'s positional membership tests.  Nothing is optimized; the guard
`MAX_N` keeps accidental quadratic-to-quartic blowups out of test runs.  The
CLI exposes these through the oracle-check action so any instance small enough
can be cross-checked end to end.
"""
from __future__ import annotations

from .core import Interval, PermutationSet, is_common_interval, is_conserved_interval

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
