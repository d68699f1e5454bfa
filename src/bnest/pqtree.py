"""PQ-tree of the common intervals of a permutation set.

The tree's nodes are the strong common intervals, those that overlap no
other common interval.  They form a laminar family holding the singletons
and (1..n), so they make a tree with (1..n) at the root.  Only internal
nodes are stored; a leaf is a label that no child of its parent covers.
Internal nodes carry one of two labels:

  Q  every union of consecutive children is again a common interval,
  P  no union of a proper consecutive block of children is common.

There is no third case: in a family closed under intersection and union of
overlapping members, either all adjacent child pairs of a node merge or
none do.  So the first pair decides, and two-child nodes come out as Q.

Construction works from the canonical generator (R, L): R[i] is the
furthest right end from left end i, L[j] the furthest left end from j, and
(i..j) is common iff j <= R[i] and L[j] <= i.  Strongness decouples per
endpoint into i >= lo[j] and j <= hi[i], with

  lo[j] = max(L[j], max{i' <= j : R[i'] > j})
  hi[i] = min(R[i], min{j' >= i : L[j'] < i})

since an overlap witness on the right is an i' in (i..j] whose arc leaves j
behind, and symmetrically on the left; each is one stack sweep.  A sweep
over right ends j with a top-down list of live left ends meets the strong
pairs in post-order, so this tree and the conserved one assemble with one
stack and no recursion.
"""
from __future__ import annotations

from bisect import bisect_left

from .core import Interval, PermutationSet
from ._kernels import canonical_generator, position_matrix


class InternalStructureError(RuntimeError):
    """Structural invariant of a strong-interval tree violated: upstream bug."""


class PQNode:
    """One strong common interval (lo..hi), 1-based, of kind 'P' or 'Q'
    ('LEAF' as the root of n = 1 or in a dump), with its internal children.
    A Q-node's ends are lo - 1 and each child's hi, leaves included; its
    children's parent_step are their indices.  annotate sets bstar, the
    least b making the node b-nested."""

    __slots__ = ("lo", "hi", "size", "kind", "children", "ends", "parent_step", "bstar")

    def __init__(self, lo: int, hi: int, kind: str, children=(), ends=None):
        self.lo = lo
        self.hi = hi
        self.size = hi - lo + 1  # read per child by the scans and counts
        self.kind = kind
        self.children = children
        self.ends = ends
        self.parent_step = None

    @property
    def interval(self) -> Interval:
        return Interval(self.lo, self.hi)


class StrongTree:
    """Tree of strong intervals over labels 1..n, nodes in post-order.
    Subclasses give each node's children, text line and JSON fields.
    Traversals are iterative, so depth is bounded only by n.  Nodes keep no
    parent pointer, so reference counting frees a dropped tree.
    `annotated` marks the thresholds set."""

    def __init__(self, nodes: list, n: int):
        self.root = nodes[-1]
        self.nodes = nodes
        self.n = n
        self.annotated = False

    def _preorder(self):
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            stack.extend((c, depth + 1) for c in reversed(self._children(node)))

    def to_text(self) -> str:
        return "\n".join("  " * depth + self._text_line(node) for node, depth in self._preorder())

    def to_json(self) -> str:
        """Nested JSON objects, each node's fields plus a "children" list,
        as json.dumps writes them, without recursion; json loads only here."""
        import json

        parts = []
        prev = -1  # the depth of the last node opened
        for node, depth in self._preorder():
            if depth <= prev:  # close down to its previous sibling
                parts.append("]}" * (prev - depth + 1) + ", ")
            parts.append(json.dumps(self._json_fields(node))[:-1] + ', "children": [')
            prev = depth
        parts.append("]}" * (prev + 1))
        return "".join(parts)

    @staticmethod
    def _children(node):
        return node.children


class PQTree(StrongTree):
    """PQ-tree of the common intervals."""

    @staticmethod
    def _children(node: PQNode) -> list:
        """Children in order, leaves as made nodes, for the dumps."""
        stored = {c.lo: c for c in node.children}
        kids = []
        v = node.lo if node.size > 1 else node.hi + 1
        while v <= node.hi:
            kids.append(stored.get(v) or PQNode(v, v, "LEAF"))
            v = kids[-1].hi + 1
        return kids

    @staticmethod
    def _text_line(node: PQNode) -> str:
        return f"{node.kind[0]} ({node.lo}..{node.hi})"

    @staticmethod
    def _json_fields(node: PQNode) -> dict:
        return {"kind": node.kind, "lo": node.lo, "hi": node.hi}


def _strong_bounds(R: list, L: list, n: int):
    """Per-endpoint strongness bounds lo[j], hi[i], both 0-based arrays."""
    lo = L[:]
    stack = []
    for j in range(n):
        if R[j] > j:
            stack.append(j)
        while stack and R[stack[-1]] <= j:
            stack.pop()
        if stack and stack[-1] > lo[j]:
            lo[j] = stack[-1]
    hi = R[:]
    stack = []
    for i in range(n - 1, -1, -1):
        if L[i] < i:
            stack.append(i)
        while stack and L[stack[-1]] >= i:
            stack.pop()
        if stack and stack[-1] < hi[i]:
            hi[i] = stack[-1]
    return lo, hi


def _assemble(lo: list, hi: list, n: int, make) -> list:
    """Nodes of the strong-interval tree, post-order, root last, for n >= 2.
    make(i, j, kids), i < j, builds the node of strong pair (i, j), 0-based,
    from its finished children in order (a shared () when it has none);
    unit pairs (j, j) make no node."""
    nodes = []
    starts, done = [], []  # finished subtrees, disjoint: 0-based left ends and nodes
    below = list(range(-1, n - 1))  # the next live left end under each
    for j in range(n):
        prev, cur = j, j - 1  # (j, j) is live and makes no node
        lj = lo[j]
        while cur >= lj:
            nxt = below[cur]
            if hi[cur] < j:
                # hi is static and j only grows: cur is dead for good.
                below[prev] = nxt
            else:
                kids = ()
                if starts and starts[-1] >= cur:
                    t = bisect_left(starts, cur)  # finished subtrees inside (cur..j)
                    kids = done[t:]
                    del starts[t:], done[t:]
                node = make(cur, j, kids)
                nodes.append(node)
                starts.append(cur)
                done.append(node)
                prev = cur
            cur = nxt
    if len(done) != 1 or (done[0].lo, done[0].hi) != (1, n):
        raise InternalStructureError("strong intervals did not close into one tree")
    return nodes


def build_pqtree(pset: PermutationSet) -> PQTree:
    """Build the PQ-tree of the common intervals of pset."""
    n = pset.n
    R, L = canonical_generator(position_matrix(pset.perms), n)
    lo, hi = _strong_bounds(R, L, n)

    def make(i, j, kids):
        his = {c.lo: c.hi for c in kids[:2]}
        h = his.get(i + 1, i + 1)  # the first two children, leaves too, end at h
        e = his.get(h + 1, h + 1) - 1  # and e + 1; Q iff they merge
        if e > R[i] or L[e] > i:
            return PQNode(i + 1, j + 1, "P", kids)
        ends = [i]
        for c in kids:
            ends += range(ends[-1] + 1, c.lo)  # leaves
            c.parent_step = len(ends) - 1
            ends.append(c.hi)
        ends += range(ends[-1] + 1, j + 2)
        return PQNode(i + 1, j + 1, "Q", kids, ends)

    return PQTree(_assemble(lo, hi, n, make) if n > 1 else [PQNode(1, 1, "LEAF")], n)
