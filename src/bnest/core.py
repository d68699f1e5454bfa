"""Permutation and interval primitives shared by every other module.

Conventions used throughout the package:

- A permutation set holds K permutations over the labels {1..n}.  Inputs may
  use any consistent label set; `normalize` renumbers so that the first
  permutation becomes the identity, and records the relabeling so results can
  be mapped back.
- Intervals (lo..hi) always live in the renumbered space, are 1-based and
  inclusive on both ends.
- Signed permutations carry one sign per position.  After normalization the
  sign of a renumbered element in permutation k is the product of its original
  sign in permutation k and its original sign in permutation 1, which makes
  the first permutation all-positive and preserves the conserved intervals.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence


class PermutationError(ValueError):
    """Base class for input validation failures."""


class LengthMismatch(PermutationError):
    def __init__(self, perm: int, expected: int, got: int):
        super().__init__(
            "permutation %d has length %d, expected %d" % (perm, got, expected)
        )
        self.perm = perm
        self.expected = expected
        self.got = got


class NotAPermutation(PermutationError):
    def __init__(self, perm: int, label: int, reason: str = "unexpected label"):
        super().__init__("permutation %d: %s: %r" % (perm, reason, label))
        self.perm = perm
        self.label = label


class DuplicateElement(NotAPermutation):
    def __init__(self, perm: int, label: int):
        super().__init__(perm, label, reason="duplicate label")


class BadFrame(PermutationError):
    """A signed set does not start every permutation with +1 and end with +n."""

    def __init__(self, perm: int, end: str, found: int):
        super().__init__(
            "permutation %d: %s end is %+d, conserved intervals need +1 ... +n"
            % (perm, end, found)
        )
        self.perm = perm
        self.end = end
        self.found = found


class Interval(tuple):
    """Closed integer range (lo..hi), 1-based, lo <= hi: the value type of
    the trees and the oracle.  An immutable (lo, hi) tuple that compares,
    sorts and hashes as one; the enumerators yield plain pairs instead.
    """

    __slots__ = ()

    def __new__(cls, lo: int, hi: int) -> "Interval":
        if lo > hi:
            raise ValueError("empty interval (%d..%d)" % (lo, hi))
        return tuple.__new__(cls, (lo, hi))

    def __getnewargs__(self) -> tuple:
        return tuple(self)  # copy and pickle call __new__(cls, lo, hi)

    lo = property(itemgetter(0), doc="left end")
    hi = property(itemgetter(1), doc="right end")

    def size(self) -> int:
        return self.hi - self.lo + 1

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def strictly_contains(self, other: "Interval") -> bool:
        return self.contains(other) and self != other

    def overlaps(self, other: "Interval") -> bool:
        """True when the two intervals intersect but neither contains the other."""
        if self.hi < other.lo or other.hi < self.lo:
            return False
        return not (self.contains(other) or other.contains(self))

    def __str__(self) -> str:
        return "(%d..%d)" % self

    def __repr__(self) -> str:
        return "Interval(lo=%r, hi=%r)" % self


@dataclass(frozen=True)
class Permutation:
    """Unsigned permutation of {1..n} with an inverse position map.

    `positions[v]` is the 1-based position of label v; index 0 is padding.
    """

    elements: tuple
    positions: tuple = field(repr=False)

    @staticmethod
    def from_elements(elements: Sequence[int]) -> "Permutation":
        n = len(elements)
        pos = [0] * (n + 1)
        for p, v in enumerate(elements, start=1):
            pos[v] = p
        return Permutation(tuple(elements), tuple(pos))

    @property
    def n(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class SignedPermutation:
    """Permutation of {1..n} with one sign (+1 or -1) per position."""

    elements: tuple
    signs: tuple
    positions: tuple = field(repr=False)

    @staticmethod
    def from_elements(elements: Sequence[int], signs: Sequence[int]) -> "SignedPermutation":
        n = len(elements)
        pos = [0] * (n + 1)
        for p, v in enumerate(elements, start=1):
            pos[v] = p
        return SignedPermutation(tuple(elements), tuple(signs), tuple(pos))

    @property
    def n(self) -> int:
        return len(self.elements)

    def signed_elements(self) -> tuple:
        return tuple(v * s for v, s in zip(self.elements, self.signs))


@dataclass(frozen=True)
class PermutationSet:
    """K permutations over {1..n}, renumbered so perms[0] is the identity.

    relabeling maps an original label to its renumbered value; original_of is
    the inverse (index v holds the original label of renumbered v, index 0 is
    padding).  Sentinel elements added by framing have no original label and
    get the pseudo-labels recorded by `apply_frame`.
    """

    perms: tuple
    n: int
    K: int
    signed: bool
    relabeling: dict = field(repr=False)
    original_of: tuple = field(repr=False)


def _check_raw(raw: Sequence[Sequence[int]]) -> int:
    if not raw:
        raise PermutationError("need at least one permutation")
    n = len(raw[0])
    if n == 0:
        raise PermutationError("permutations must be non-empty")
    label_sets = []
    for k, seq in enumerate(raw):
        if len(seq) != n:
            raise LengthMismatch(k, n, len(seq))
        seen = set()
        for x in seq:
            if x == 0:
                raise NotAPermutation(k, 0, reason="label 0 cannot carry a sign")
            a = abs(x)
            if a in seen:
                raise DuplicateElement(k, a)
            seen.add(a)
        label_sets.append(seen)
    base = label_sets[0]
    for k, labels in enumerate(label_sets[1:], start=1):
        if labels != base:
            bad = next(iter(labels.symmetric_difference(base)))
            raise NotAPermutation(k, bad, reason="label set differs from permutation 0")
    return n


def normalize(raw: Sequence[Sequence[int]], signed: "bool | None" = None) -> PermutationSet:
    """Renumber the input so the first permutation becomes the identity.

    `raw` holds K equal-length sequences of nonzero integers; a negative entry
    means a negative sign on the label abs(entry).  With signed=None the set
    is treated as signed exactly when some entry is negative.
    """
    n = _check_raw(raw)
    if signed is None:
        signed = any(x < 0 for seq in raw for x in seq)

    first = raw[0]
    relabeling = {}
    original_of = [0] * (n + 1)
    sign_in_first = {}
    for p, x in enumerate(first, start=1):
        a = abs(x)
        relabeling[a] = p
        original_of[p] = a
        sign_in_first[a] = -1 if x < 0 else 1

    perms = []
    for seq in raw:
        elems = list(map(relabeling.__getitem__, map(abs, seq)))
        if signed:
            signs = [(-1 if x < 0 else 1) * sign_in_first[abs(x)] for x in seq]
            perms.append(SignedPermutation.from_elements(elems, signs))
        else:
            perms.append(Permutation.from_elements(elems))

    return PermutationSet(
        perms=tuple(perms),
        n=n,
        K=len(perms),
        signed=signed,
        relabeling=relabeling,
        original_of=tuple(original_of),
    )


def validate_conserved_frame(pset: PermutationSet) -> PermutationSet:
    """Check the +1 ... +n frame required by conserved intervals.

    Returns the set unchanged when every permutation starts with +1 and ends
    with +n, and raises BadFrame otherwise.  `apply_frame` adds a frame.
    """
    if not pset.signed:
        raise PermutationError("conserved intervals need a signed permutation set")
    n = pset.n
    for k, perm in enumerate(pset.perms):
        first = perm.elements[0] * perm.signs[0]
        last = perm.elements[-1] * perm.signs[-1]
        if first != 1:
            raise BadFrame(k, "left", first)
        if last != n:
            raise BadFrame(k, "right", last)
    return pset


def apply_frame(pset: PermutationSet) -> PermutationSet:
    """Wrap every permutation in sentinel elements and renumber to {1..n+2}.

    The sentinels get pseudo-labels just outside the original label range
    (min-1 in front, max+1 in back; max+2 in front when min-1 would hit 0),
    so relabeling stays a bijection and `original_of` covers framed results
    too.
    """
    hi_sent = max(pset.relabeling) + 1
    lo_sent = min(pset.relabeling) - 1
    if lo_sent < 1:
        lo_sent = hi_sent + 1
    raw = []
    for perm in pset.perms:
        body = perm.signed_elements() if pset.signed else perm.elements
        raw.append([lo_sent] + _to_original(pset, body) + [hi_sent])
    return normalize(raw, signed=True)


def _to_original(pset: PermutationSet, signed_renumbered: Iterable[int]) -> list:
    out = []
    for x in signed_renumbered:
        orig = pset.original_of[abs(x)]
        out.append(orig if x > 0 else -orig)
    return out


def is_common_interval(pset: PermutationSet, iv: Interval) -> bool:
    """True when the labels of (lo, hi), an Interval or a plain pair, sit in
    consecutive positions everywhere: max position - min position == hi - lo.
    """
    lo, hi = iv
    if not 1 <= lo <= hi <= pset.n:
        raise ValueError("interval (%d..%d) empty or out of range 1..%d" % (lo, hi, pset.n))
    for perm in pset.perms:
        positions = perm.positions
        pmin = pmax = positions[lo]
        for v in range(lo + 1, hi + 1):
            p = positions[v]
            if p < pmin:
                pmin = p
            elif p > pmax:
                pmax = p
        if pmax - pmin != hi - lo:
            return False
    return True


def is_conserved_interval(pset: PermutationSet, iv: Interval) -> bool:
    """True when (lo, hi) is a unit interval or a common interval delimited,
    in every permutation, by +lo ... +hi or by -hi ... -lo."""
    a, c = iv
    if not 1 <= a <= c <= pset.n:
        raise ValueError("interval (%d..%d) empty or out of range 1..%d" % (a, c, pset.n))
    if a == c:
        return True
    if not pset.signed:
        raise PermutationError("conserved intervals need a signed permutation set")
    if not is_common_interval(pset, iv):
        return False
    for perm in pset.perms:
        positions = perm.positions
        pmin = pmax = positions[a]
        for v in range(a + 1, c + 1):
            p = positions[v]
            if p < pmin:
                pmin = p
            elif p > pmax:
                pmax = p
        first = perm.elements[pmin - 1] * perm.signs[pmin - 1]
        last = perm.elements[pmax - 1] * perm.signs[pmax - 1]
        if not ((first == a and last == c) or (first == -c and last == -a)):
            return False
    return True


def parse_permutations(text: str) -> list:
    """Parse the shared text format: one permutation per line, whitespace
    separated integers, '-' marks a negative sign, '#' starts a comment,
    blank lines are skipped."""
    raw = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            row = [int(tok) for tok in body.split()]
        except ValueError as exc:
            raise PermutationError("line %d: %s" % (lineno, exc)) from None
        raw.append(row)
    return raw


def format_permutations(pset: PermutationSet) -> str:
    rows = (perm.signed_elements() if pset.signed else perm.elements for perm in pset.perms)
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)
