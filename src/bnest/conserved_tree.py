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

Membership is common-interval membership with one orientation rule: (a..c),
a < c, is conserved iff it is common, a sits at the end of the block that
its sign names (+a first, -a last) and c at the other end (+c last, -c
first).  The per-row Sup(a) and Inf(c) sweeps of `_kernels` enforce this:
when a (or c) joins its neighbour runs, the run on the side it must not
extend into is shut out.  A pair whose ends have mixed signs in a row
fails that row: +a and -c would both have to come first in one block of
two or more positions, -a and +c both last.  Canonicalized (the family is
closed under the union of overlapping members), the exact bounds give the
conserved family's generator (R, L) on the n labels, and the PQ-tree's
sweeps and assembly build the tree; unit pairs make no node.
"""
from __future__ import annotations

from .core import Interval, PermutationSet, validate_conserved_frame
from ._kernels import canonicalize, exact_bounds
from .pqtree import InternalStructureError, StrongTree, _assemble, _strong_bounds


class ConservedNode:
    """One strong conserved interval (lo..hi), 1-based, with its ascending
    frontiers, lo first and hi last.  L_link holds the parent frontiers
    around the node and parent_step the index of that parent step; both
    stay None at the root.  annotate_conserved sets bstar, the least b
    making the node b-nested, and tau, per frontier step the least b
    making that step plain or a good gap."""

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


def _doubled_position_matrix(pset: PermutationSet) -> tuple:
    """The `positions` tuple of each permutation other than the
    all-positive identity, and per row a list true where 0-based label i
    has a + sign.  The name is left from the doubled alphabet, which the
    oriented sweep no longer needs; it stays because the benchmark's tracer
    patches this function."""
    identity = tuple(range(1, pset.n + 1))
    keep = [perm for perm in pset.perms if perm.elements != identity or -1 in perm.signs]
    opens = []
    for perm in keep:
        plus = (False, *map((1).__eq__, perm.signs))  # by 1-based position
        opens.append(list(map(plus.__getitem__, perm.positions[1:])))
    return [perm.positions for perm in keep], opens


def _conserved_generator(pset: PermutationSet):
    """Canonical (R, L) of the conserved family, 0-based label indices."""
    rows, opens = _doubled_position_matrix(pset)
    R0, L0 = exact_bounds(rows, pset.n, opens)
    return canonicalize(R0, L0, pset.n)


def build_conserved_tree(pset: PermutationSet) -> ConservedTree:
    """Build the strong-interval inclusion tree of a framed signed set."""
    validate_conserved_frame(pset)
    n = pset.n
    R, L = _conserved_generator(pset)

    def mem(i, j):  # 0-based, i < j
        return j <= R[i] and L[j] <= i

    def make(i, j, kids):
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
    return ConservedTree(_assemble(lo, hi, n, make) if n > 1 else [ConservedNode(1, 1, (1,))], n)


def irreducible_conserved_intervals(tree: ConservedTree) -> list:
    """The tree's irreducible conserved intervals of size >= 2, sorted.

    Irreducible: not the union of two overlapping smaller conserved
    intervals.  These are exactly the frontier steps of the tree nodes; an
    interior split point m of a step could otherwise be chained into both
    ends and would enlarge the maximal frontier set.
    """
    return sorted(step for node in tree.nodes for step in node.steps())
