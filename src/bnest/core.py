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

from operator import itemgetter


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


class _Fields(tuple):
    """Base of the immutable value types: a tuple of the constructor's
    arguments, read through itemgetter properties, so an instance compares
    (and hashes, when every field does) by value and refuses assignment."""

    __slots__ = ()

    def __getnewargs__(self) -> tuple:
        return tuple(self)  # copy and pickle call __new__(cls, *fields)


class Interval(_Fields):
    """Closed integer range (lo..hi), 1-based, lo <= hi: the value type of
    the trees and the oracle.  An immutable (lo, hi) tuple that compares,
    sorts and hashes as one; the enumerators yield plain pairs instead.
    """

    __slots__ = ()

    def __new__(cls, lo: int, hi: int) -> "Interval":
        if lo > hi:
            raise ValueError("empty interval (%d..%d)" % (lo, hi))
        return tuple.__new__(cls, (lo, hi))

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


def _inverse(elements: list) -> tuple:
    pos = [0] * (len(elements) + 1)
    for p, v in enumerate(elements, start=1):
        pos[v] = p
    return tuple(pos)


class Permutation(_Fields):
    """Unsigned permutation of {1..n} as an immutable (elements, positions)
    tuple: `positions[v]` is the 1-based position of label v (index 0 pads)."""

    __slots__ = ()

    def __new__(cls, elements: tuple, positions: tuple) -> "Permutation":
        return tuple.__new__(cls, (elements, positions))

    elements, positions = map(property, map(itemgetter, range(2)))

    @property
    def n(self) -> int:
        return len(self.elements)


class SignedPermutation(_Fields):
    """Permutation of {1..n} with one sign (+1 or -1) per position, as an
    immutable (elements, signs, positions) tuple."""

    __slots__ = ()

    def __new__(cls, elements: tuple, signs: tuple, positions: tuple) -> "SignedPermutation":
        return tuple.__new__(cls, (elements, signs, positions))

    elements, signs, positions = map(property, map(itemgetter, range(3)))

    @property
    def n(self) -> int:
        return len(self.elements)

    def signed_elements(self) -> tuple:
        return tuple(v * s for v, s in zip(self.elements, self.signs))


class PermutationSet(_Fields):
    """K permutations over {1..n}, renumbered so perms[0] is the identity:
    an immutable (perms, n, K, signed, relabeling, original_of) tuple.
    relabeling maps an original label to its renumbered value; original_of is
    the inverse (index v holds the original label of renumbered v, index 0 is
    padding).  Sentinel elements added by framing have no original label and
    get the pseudo-labels recorded by `apply_frame`.
    """

    __slots__ = ()

    def __new__(cls, perms: tuple, n: int, K: int, signed: bool, relabeling: dict,
                original_of: tuple) -> "PermutationSet":
        return tuple.__new__(cls, (perms, n, K, signed, relabeling, original_of))

    perms, n, K, signed, relabeling, original_of = map(property, map(itemgetter, range(6)))


def _check_raw(raw: list) -> int:
    if not raw:
        raise PermutationError("need at least one permutation")
    n = len(raw[0])
    if n == 0:
        raise PermutationError("permutations must be non-empty")
    label_sets = []
    for k, seq in enumerate(raw):
        if len(seq) != n:
            raise LengthMismatch(k, n, len(seq))
        labels = set(map(abs, seq))
        if len(labels) != n or 0 in labels:  # name the first bad label
            seen = set()
            for a in map(abs, seq):
                if a == 0:
                    raise NotAPermutation(k, 0, reason="label 0 cannot carry a sign")
                if a in seen:
                    raise DuplicateElement(k, a)
                seen.add(a)
        label_sets.append(labels)
    base = label_sets[0]
    for k, labels in enumerate(label_sets[1:], start=1):
        if labels != base:
            bad = next(iter(labels.symmetric_difference(base)))
            raise NotAPermutation(k, bad, reason="label set differs from permutation 0")
    return n


def normalize(raw: list, signed: "bool | None" = None) -> PermutationSet:
    """Renumber the input so the first permutation becomes the identity.

    `raw` holds K equal-length sequences of nonzero integers; a negative entry
    means a negative sign on the label abs(entry).  With signed=None the set
    is treated as signed exactly when some entry is negative.  Validation
    errors come from `_check_raw` unchanged, called when a relabel check fails.
    """
    try:
        first = list(map(abs, raw[0]))
        n = len(first)
        relabeling = dict(zip(first, range(1, n + 1)))
        if not n or len(relabeling) != n or 0 in relabeling or set(map(len, raw)) != {n}:
            raise KeyError
        if signed is None:
            signed = min(map(min, raw)) < 0
        identity = tuple(range(1, n + 1))
        if signed:
            sign_in_first = {abs(x): -1 if x < 0 else 1 for x in raw[0]}
            perms = [SignedPermutation(identity, (1,) * n, (0, *identity))]
        else:
            perms = [Permutation(identity, (0, *identity))]
        for seq in raw[1:]:
            elems = list(map(relabeling.__getitem__, map(abs, seq)))  # KeyError: a foreign label
            pos = _inverse(elems)
            if pos.count(0) != 1:  # a duplicate left some label without a position
                raise KeyError
            if signed:
                signs = [(-1 if x < 0 else 1) * sign_in_first[abs(x)] for x in seq]
                perms.append(SignedPermutation(tuple(elems), tuple(signs), pos))
            else:
                perms.append(Permutation(tuple(elems), pos))
    except (IndexError, KeyError):
        perms = None
    if perms is None:
        _check_raw(raw)  # raises: the checks above fail only on invalid input
    return PermutationSet(
        perms=tuple(perms),
        n=n,
        K=len(perms),
        signed=signed,
        relabeling=relabeling,
        original_of=(0, *first),
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


def _to_original(pset: PermutationSet, signed_renumbered: tuple) -> list:
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
        span = perm.positions[lo:hi + 1]  # the positions of labels lo..hi
        if max(span) - min(span) != hi - lo:
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
        span = perm.positions[a:c + 1]
        pmin, pmax = min(span), max(span)
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
            row = list(map(int, body.split()))
        except ValueError as exc:
            raise PermutationError("line %d: %s" % (lineno, exc)) from None
        raw.append(row)
    return raw
