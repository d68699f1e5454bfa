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
leaves j behind, and symmetrically on the left.  A sweep over right ends j
with a top-down list of live left ends emits the strong pairs in post-order,
so the tree assembles with one stack and no recursion.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .core import Interval, PermutationSet
from ._kernels import canonical_generator, position_matrix, find_left, find_right


@dataclass(eq=False)
class PQNode:
    interval: Interval
    kind: str  # 'P', 'Q' or 'LEAF'
    children: list = field(default_factory=list)
    size: int = field(init=False, repr=False)
    bstar: int = field(init=False, repr=False)  # least b making it b-nested; see annotate

    def __post_init__(self):
        self.size = self.interval.size()  # read per child by the scans and counts

    @property
    def is_leaf(self) -> bool:
        return self.kind == "LEAF"


class StrongTree:
    """Tree of strong intervals, nodes in post-order, plus the generator
    (R, L) it came from.  Subclasses give each node's text line and JSON
    fields; every traversal is iterative, so depth is bounded only by n.
    Nodes keep no parent pointer: a dropped tree holds no reference cycle,
    so reference counting frees it without waiting for a full GC pass.
    `annotated` records that the b-nesting thresholds are set on the nodes."""

    def __init__(self, root, nodes: list, R: list, L: list, pset: PermutationSet):
        self.root = root
        self.nodes = nodes  # post-order
        self.n = pset.n
        self.pset = pset
        self._R = R
        self._L = L
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

    def to_json_obj(self) -> dict:
        """Nested dicts: each node's JSON fields plus a "children" list."""
        top = dict(self._json_fields(self.root), children=[])
        stack = [(self.root, top)]
        while stack:
            node, obj = stack.pop()
            for child in node.children:
                sub = dict(self._json_fields(child), children=[])
                obj["children"].append(sub)
                stack.append((child, sub))
        return top

    def to_json(self) -> str:
        """The text json.dumps gives for to_json_obj(); json.dumps itself
        recurses once per nesting level."""
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

    def is_common(self, lo: int, hi: int) -> bool:
        """Membership test for the common-interval family, 1-based ends."""
        if not (1 <= lo <= hi <= self.n):
            return False
        i, j = lo - 1, hi - 1
        return j <= self._R[i] and self._L[j] <= i

    def num_common_intervals(self) -> int:
        """|F| without enumerating: nodes plus the weak unions of Q-nodes."""
        total = len(self.nodes)
        for node in self.nodes:
            if node.kind == "Q":
                m = len(node.children)
                total += m * (m - 1) // 2 - 1
        return total

    @staticmethod
    def _text_line(node: PQNode) -> str:
        return f"{'L' if node.is_leaf else node.kind} {node.interval}"

    @staticmethod
    def _json_fields(node: PQNode) -> dict:
        return {"kind": node.kind, "lo": node.interval.lo, "hi": node.interval.hi}


def _strong_bounds(R: list, L: list, n: int):
    """Per-endpoint strongness bounds lo[j], hi[i], both 0-based arrays."""
    # maxbad[j] = max{i <= j : R[i] > j}; kill i once its arc ends.
    by_r = [[] for _ in range(n)]
    for i in range(n):
        by_r[R[i]].append(i)
    par = list(range(n))
    lo = [0] * n
    for j in range(n):
        for i in by_r[j]:
            par[i] = i - 1
        mb = find_left(par, j)
        lj = L[j]
        lo[j] = lj if lj > mb else mb

    # minbad[i] = min{j >= i : L[j] < i}; kill j once i drops below L[j]+1.
    by_l = [[] for _ in range(n)]
    for j in range(n):
        by_l[L[j]].append(j)
    par = list(range(n + 1))
    hi = [0] * n
    for i in range(n - 1, -1, -1):
        for j in by_l[i]:
            par[j] = j + 1
        mb = find_right(par, i)
        ri = R[i]
        hi[i] = ri if ri < mb else mb
    return lo, hi


def _emit_strong(lo, hi, n):
    """Yield strong pairs (i, j), 0-based, right ends ascending and inner
    intervals before outer ones; that order is post-order of the tree."""
    below = [-1] * n
    top = -1
    for j in range(n):
        below[j] = top
        top = j
        prev = -1
        cur = top
        lj = lo[j]
        while cur >= lj:
            nxt = below[cur]
            if hi[cur] >= j:
                yield cur, j
                prev = cur
            else:
                # hi is static and j only grows: cur is dead for good.
                if prev == -1:
                    top = nxt
                else:
                    below[prev] = nxt
            cur = nxt


def build_pqtree(pset: PermutationSet) -> PQTree:
    """Build the PQ-tree of the common intervals of pset."""
    n = pset.n
    R, L = canonical_generator(position_matrix(pset.perms), n)
    lo, hi = _strong_bounds(R, L, n)

    def mem(i, j):
        return j <= R[i] and L[j] <= i

    nodes = []
    done = []  # stack of (lo0, finished node), disjoint, ascending lo0
    for i, j in _emit_strong(lo, hi, n):
        if i == j:
            node = PQNode(Interval(i + 1, j + 1), "LEAF")
        else:
            kids = []
            while done and done[-1][0] >= i:
                kids.append(done.pop()[1])
            kids.reverse()
            kind = "Q" if mem(kids[0].interval.lo - 1, kids[1].interval.hi - 1) else "P"
            node = PQNode(Interval(i + 1, j + 1), kind, kids)
        nodes.append(node)
        done.append((i, node))
    assert len(done) == 1, "strong intervals did not close into one tree"
    return PQTree(done[0][1], nodes, R, L, pset)
