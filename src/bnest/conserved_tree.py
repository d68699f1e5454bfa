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
(R, L) of the conserved family, and the PQ-tree's strong-interval sweep and
assembly build the tree, leaving the unit intervals out.
"""
from __future__ import annotations

import numpy as np

from .core import Interval, PermutationSet, validate_conserved_frame
from ._kernels import canonicalize, exact_bounds
from .pqtree import InternalStructureError, StrongTree, _assemble, _strong_bounds


class ConservedNode:
    """One strong conserved interval (lo..hi), 1-based, with its frontiers
    (ascending, frontiers[0] = lo, frontiers[-1] = hi).  L_link holds the
    successive parent frontiers around the node and parent_step the index
    of that parent step; both stay None at the root.  annotate_conserved
    sets bstar, the least b making the node b-nested, and tau, per frontier
    step the least b making that step plain or a good gap."""

    __slots__ = ("lo", "hi", "size", "frontiers", "children", "L_link", "parent_step",
                 "bstar", "tau")

    def __init__(self, lo: int, hi: int, frontiers: tuple, children=()):
        self.lo = lo
        self.hi = hi
        self.size = hi - lo + 1  # read per child by annotate_conserved
        self.frontiers = frontiers
        self.children = children
        self.L_link = None
        self.parent_step = None

    @property
    def interval(self) -> Interval:
        return Interval(self.lo, self.hi)

    def steps(self):
        """Successive frontier pairs; these are the irreducible intervals."""
        f = self.frontiers
        return [Interval(f[t], f[t + 1]) for t in range(len(f) - 1)]


class ConservedTree(StrongTree):
    """Inclusion tree of the strong conserved intervals."""

    @staticmethod
    def _text_line(node: ConservedNode) -> str:
        line = f"S ({node.lo}..{node.hi}) F={{{','.join(str(f) for f in node.frontiers)}}}"
        if node.L_link is not None:
            line += f" L=({node.L_link[0]},{node.L_link[1]})"
        return line

    @staticmethod
    def _json_fields(node: ConservedNode) -> dict:
        return {
            "lo": node.lo,
            "hi": node.hi,
            "frontiers": list(node.frontiers),
            "L_link": list(node.L_link) if node.L_link else None,
        }


def _doubled_position_matrix(pset: PermutationSet) -> np.ndarray:
    """One row per non-identity doubled permutation: value -> position.
    +v at position p holds values 2v-1, 2v at positions 2p-1, 2p (1-based),
    and -v holds them swapped."""
    n = pset.n
    identity = tuple(range(1, n + 1))
    keep = [perm for perm in pset.perms if perm.elements != identity or -1 in perm.signs]
    k = len(keep)
    pos = np.array([perm.positions for perm in keep], dtype=np.int64).reshape(k, n + 1)[:, 1:] - 1
    signs = np.array([perm.signs for perm in keep], dtype=np.int64).reshape(k, n)
    neg = np.take_along_axis(signs, pos, axis=1) < 0  # per label
    out = np.empty((k, 2 * n), dtype=np.int64)
    out[:, 0::2] = 2 * pos + neg
    out[:, 1::2] = 2 * pos + 1 - neg
    return out


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
    R, L = _conserved_generator(pset)

    def mem(i, j):  # 0-based, i < j
        return j <= R[i] and L[j] <= i

    def make(i, j, kids):
        if i == j:  # a unit interval is a node only as the root of n = 1
            return ConservedNode(1, 1, (1,)) if n == 1 else None
        # Frontiers: the ends, plus every element covered by no child whose
        # two sides are both conserved.  Interior frontiers are never inside
        # a child (the side intervals would overlap that strong child), so
        # each child lies in the step opened by the last frontier before it.
        fr = [i]
        cur = i + 1
        for c in kids:
            for f in range(cur, c.lo - 1):
                if mem(i, f) and mem(f, j):
                    fr.append(f)
            c.parent_step = len(fr) - 1
            cur = c.hi
        for f in range(cur, j):
            if mem(i, f) and mem(f, j):
                fr.append(f)
        fr.append(j)
        node = ConservedNode(i + 1, j + 1, tuple(x + 1 for x in fr), kids)
        f = node.frontiers
        for c in kids:
            f_lo, f_hi = f[c.parent_step], f[c.parent_step + 1]
            if not f_lo <= c.lo <= c.hi <= f_hi or (f_lo, f_hi) == (c.lo, c.hi):
                raise InternalStructureError(
                    f"child {c.interval} not strictly inside a frontier step of {node.interval}")
            c.L_link = (f_lo, f_hi)
        return node

    lo, hi = _strong_bounds(R, L, n)
    return ConservedTree(_assemble(lo, hi, n, make), n)


def irreducible_conserved_intervals(tree: ConservedTree) -> list:
    """The tree's irreducible conserved intervals of size >= 2, sorted.

    Irreducible: not the union of two overlapping smaller conserved
    intervals.  These are exactly the frontier steps of the tree nodes; an
    interior split point m of a step could otherwise be chained into both
    ends and would enlarge the maximal frontier set.
    """
    return sorted(step for node in tree.nodes for step in node.steps())
