"""Inclusion tree of strong conserved intervals, with frontier sets.

A conserved interval of a framed signed set is a label range (a..c) lying in
consecutive positions in every permutation and delimited there by +a ... +c
or by -c ... -a.  The family is closed under intersection and union of
overlapping members but is not representable by a PQ-tree; its structure is
the inclusion tree of the strong (overlap-free, size >= 2) members, where
each node carries its maximal frontier set F: the elements f such that
(lo..f) and (f..hi) are both conserved.  Every pair of frontiers spans a
conserved interval, every weak conserved interval is a frontier pair of
exactly one node, and each child lies strictly inside one frontier step
(f_l..f_{l+1}) of its parent, recorded as the child's L_link.

Membership reduces to common intervals over a doubled alphabet: replace +v
by the pair (2v-1, 2v) and -v by (2v, 2v-1).  Then (a..c) with a < c is
conserved iff the doubled value range (2a..2c-1) is a common interval of the
doubled permutations: the doubled run is consecutive exactly when the
original block is, and it can only start on the left half of a +a (or right
half of a -a backwards) when the delimiter signs match.  Exact bounds of
the doubled family therefore yield, after a floor-by-two change of
coordinates and one DSU pass to restore canonicity, the canonical generator
(R, L) of the conserved family, and the same strong-interval sweep used for
the PQ-tree emits the nodes in post-order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Interval, PermutationSet, validate_conserved_frame
from ._kernels import canonicalize, exact_bounds
from .pqtree import StrongTree, _emit_strong, _strong_bounds


class InternalStructureError(RuntimeError):
    """Structural invariant of the conserved family violated: upstream bug."""


@dataclass(eq=False)
class ConservedNode:
    interval: Interval
    frontiers: tuple  # ascending, frontiers[0] = lo, frontiers[-1] = hi
    children: list = field(default_factory=list)
    L_link: "tuple | None" = None  # successive parent frontiers around self
    parent_step: "int | None" = field(default=None, repr=False)
    size: int = field(init=False, repr=False)
    # Set by conserved_enum.annotate_conserved: the least b making the node
    # b-nested, and per frontier step the least b making that step plain or
    # a good gap.
    bstar: int = field(init=False, repr=False)
    tau: list = field(init=False, repr=False)

    def __post_init__(self):
        self.size = self.interval.size()  # read per child by annotate_conserved

    def steps(self):
        """Successive frontier pairs; these are the irreducible intervals."""
        f = self.frontiers
        return [Interval(f[t], f[t + 1]) for t in range(len(f) - 1)]


class ConservedTree(StrongTree):
    def is_conserved(self, lo: int, hi: int) -> bool:
        """Membership test, 1-based ends; unit intervals always qualify."""
        if not (1 <= lo <= hi <= self.n):
            return False
        if lo == hi:
            return True
        i, j = lo - 1, hi - 1
        return j <= self._R[i] and self._L[j] <= i

    def num_conserved_intervals(self) -> int:
        """|F|: singletons plus one interval per frontier pair per node."""
        total = self.n
        for node in self.nodes:
            m = len(node.frontiers)
            total += m * (m - 1) // 2
        return total

    @staticmethod
    def _text_line(node: ConservedNode) -> str:
        line = f"S {node.interval} F={{{','.join(str(f) for f in node.frontiers)}}}"
        if node.L_link is not None:
            line += f" L=({node.L_link[0]},{node.L_link[1]})"
        return line

    @staticmethod
    def _json_fields(node: ConservedNode) -> dict:
        return {
            "lo": node.interval.lo,
            "hi": node.interval.hi,
            "frontiers": list(node.frontiers),
            "L_link": list(node.L_link) if node.L_link else None,
        }


def _doubled_position_matrix(pset: PermutationSet) -> np.ndarray:
    """One row per non-identity doubled permutation: value -> position."""
    n = pset.n
    rows = []
    for perm in pset.perms:
        signs = getattr(perm, "signs", None)
        row = np.empty(2 * n, dtype=np.int64)
        identity = True
        for p in range(n):
            v = perm.elements[p]
            s = 1 if signs is None else signs[p]
            if s > 0:
                row[2 * v - 2] = 2 * p
                row[2 * v - 1] = 2 * p + 1
            else:
                row[2 * v - 1] = 2 * p
                row[2 * v - 2] = 2 * p + 1
                identity = False
            if v != p + 1:
                identity = False
        if not identity:
            rows.append(row)
    if not rows:
        return np.empty((0, 0), dtype=np.int64)
    return np.stack(rows)


def _conserved_generator(pset: PermutationSet):
    """Canonical (R, L) of the conserved family, 0-based label indices."""
    n = pset.n
    RD, LD = exact_bounds(_doubled_position_matrix(pset), 2 * n)
    # (a..c), a<c, is conserved iff doubled (2a+1..2c) is common, that is iff
    # 2c <= RD[2a+1] and LD[2c] <= 2a+1; halving keeps both tests exact.
    R0 = [r // 2 for r in RD[1::2]]
    L0 = [l // 2 for l in LD[0::2]]
    return canonicalize(R0, L0, n)


def build_conserved_tree(pset: PermutationSet) -> ConservedTree:
    """Build the strong-interval inclusion tree of a framed signed set."""
    validate_conserved_frame(pset)
    n = pset.n
    if n == 1:
        root = ConservedNode(Interval(1, 1), (1,))
        return ConservedTree(root, [root], [0], [0], pset)

    R, L = _conserved_generator(pset)

    def mem(i, j):  # 0-based, i < j
        return j <= R[i] and L[j] <= i

    lo, hi = _strong_bounds(R, L, n)
    nodes = []
    done = []  # stack of (lo0, finished node)
    for i, j in _emit_strong(lo, hi, n):
        if i == j:
            continue  # unit intervals are not strong conserved intervals
        kids = []
        while done and done[-1][0] >= i:
            kids.append(done.pop()[1])
        kids.reverse()

        # Frontiers: the ends, plus every element covered by no child whose
        # two sides are both conserved.  Interior frontiers are never inside
        # a child: the side intervals would overlap that strong child.
        fr = [i]
        cur = i
        for c in kids:
            clo, chi = c.interval.lo - 1, c.interval.hi - 1
            for f in range(cur, clo):
                if f != i and mem(i, f) and mem(f, j):
                    fr.append(f)
            cur = chi + 1
        for f in range(cur, j + 1):
            if f != i and f != j and mem(i, f) and mem(f, j):
                fr.append(f)
        fr.append(j)

        node = ConservedNode(Interval(i + 1, j + 1), tuple(x + 1 for x in fr))
        step = 0
        for c in kids:
            while step + 1 < len(fr) - 1 and fr[step + 1] <= c.interval.lo - 1:
                step += 1
            f_lo, f_hi = fr[step], fr[step + 1]
            inside = f_lo <= c.interval.lo - 1 and c.interval.hi - 1 <= f_hi
            if not inside or (f_lo, f_hi) == (c.interval.lo - 1, c.interval.hi - 1):
                raise InternalStructureError(
                    f"child {c.interval} not strictly inside a frontier step of {node.interval}"
                )
            c.L_link = (f_lo + 1, f_hi + 1)
            c.parent_step = step
        node.children = kids
        nodes.append(node)
        done.append((i, node))

    if len(done) != 1 or done[0][1].interval != Interval(1, n):
        raise InternalStructureError("strong conserved intervals did not close into one tree")
    return ConservedTree(done[0][1], nodes, R, L, pset)


def irreducible_conserved_intervals(tree: ConservedTree) -> list:
    """The tree's irreducible conserved intervals of size >= 2, sorted.

    Irreducible: not the union of two overlapping smaller conserved
    intervals.  These are exactly the frontier steps of the tree nodes; an
    interior split point m of a step could otherwise be chained into both
    ends and would enlarge the maximal frontier set.
    """
    out = []
    for node in tree.nodes:
        if node.size >= 2:
            out.extend(node.steps())
    out.sort()
    return out
