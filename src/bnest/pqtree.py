"""PQ-tree of the common intervals of a permutation set.

The tree's nodes are the strong common intervals: those that overlap no
other common interval.  Strong intervals form a laminar family, singletons
and (1..n) always included, so they arrange into a tree with (1..n) at the
root.  Internal nodes carry one of two labels:

  Q  every union of consecutive children is again a common interval,
  P  no union of a proper consecutive block of children is common.

There is no third case: in a family closed under intersection and union of
overlapping members, the quotient of a node by its children is either such
that all adjacent child pairs merge or none do.  Testing the first adjacent
pair is therefore enough, and nodes with exactly two children come out as Q.

Construction works from the canonical generator (R, L) of the family, where
R[i] is the furthest right end reachable from left end i and L[j] the
furthest left end from j; (i..j) is common iff j <= R[i] and L[j] <= i.
Strongness decouples per endpoint into i >= lo[j] and j <= hi[i], with

  lo[j] = max(L[j], max{i' <= j : R[i'] > j})
  hi[i] = min(R[i], min{j' >= i : L[j'] < i})

because an overlap witness on the right is exactly an i' in (i..j] whose arc
leaves j behind, and symmetrically on the left.  Each is one stack sweep.
A sweep over right ends j with a top-down list of live left ends meets the
strong pairs in post-order, so the tree assembles with one stack and no
recursion; the conserved tree is assembled by the same routine.
"""
from __future__ import annotations

from bisect import bisect_left

from .core import Interval, PermutationSet
from ._kernels import canonical_generator, position_matrix


class InternalStructureError(RuntimeError):
    """Structural invariant of a strong-interval tree violated: upstream bug."""


class PQNode:
    """One strong common interval (lo..hi), 1-based; kind 'P', 'Q' or
    'LEAF'.  Leaves share () as children.  annotate sets bstar, the least
    b making the node b-nested."""

    __slots__ = ("lo", "hi", "size", "kind", "children", "bstar")

    def __init__(self, lo: int, hi: int, kind: str, children=()):
        self.lo = lo
        self.hi = hi
        self.size = hi - lo + 1  # read per child by the scans and counts
        self.kind = kind
        self.children = children

    @property
    def interval(self) -> Interval:
        return Interval(self.lo, self.hi)

    @property
    def is_leaf(self) -> bool:
        return self.kind == "LEAF"


class StrongTree:
    """Tree of strong intervals over labels 1..n, nodes in post-order.
    Subclasses give each node's text line and JSON fields; every traversal
    is iterative, so depth is bounded only by n.  Nodes keep no parent
    pointer: a dropped tree holds no reference cycle, so reference counting
    frees it without waiting for a full GC pass.  `annotated` records that
    the b-nesting thresholds are set on the nodes."""

    def __init__(self, nodes: list, n: int):
        self.root = nodes[-1]
        self.nodes = nodes  # post-order
        self.n = n
        self.annotated = False

    def to_text(self) -> str:
        lines = []
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            lines.append("  " * depth + self._text_line(node))
            for child in reversed(node.children):
                stack.append((child, depth + 1))
        return "\n".join(lines)

    def to_json(self) -> str:
        """The nodes as nested JSON objects, each node's fields plus a
        "children" list, in the text json.dumps gives; json.dumps itself
        recurses once per nesting level.  json is imported here, so only
        `tree --json` loads it."""
        import json

        parts = []
        stack = [self.root]  # nodes, and the separators and closers between them
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            parts.append(json.dumps(self._json_fields(item))[:-1] + ', "children": [')
            stack.append("]}")
            kids = item.children
            for t in range(len(kids) - 1, -1, -1):
                stack.append(kids[t])
                if t:
                    stack.append(", ")
        return "".join(parts)


class PQTree(StrongTree):
    """PQ-tree of the common intervals."""

    @staticmethod
    def _text_line(node: PQNode) -> str:
        return f"{'L' if node.is_leaf else node.kind} ({node.lo}..{node.hi})"

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


def _assemble(lo: list, hi: list, n: int, make, leaf) -> list:
    """Nodes of the strong-interval tree, post-order, root last.

    leaf(j) builds the node of strong pair (j, j), 0-based, and
    make(i, j, kids), i < j, that of (i, j) from its finished children in
    order (a shared () when it has none); either returns None to leave the
    pair out of the tree.
    """
    nodes = []
    starts, done = [], []  # finished subtrees, disjoint: 0-based left ends and nodes
    below = list(range(-1, n - 1))  # the next live left end under each
    for j in range(n):
        cur = j
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
                node = make(cur, j, kids) if cur < j else leaf(j)
                if node is not None:
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
        a, b = kids[0].lo - 1, kids[1].hi - 1  # Q iff the first two children merge
        return PQNode(i + 1, j + 1, "Q" if b <= R[a] and L[b] <= a else "P", kids)

    def leaf(j):
        return PQNode(j + 1, j + 1, "LEAF")

    return PQTree(_assemble(lo, hi, n, make, leaf), n)
