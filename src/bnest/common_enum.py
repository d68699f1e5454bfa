"""Enumerate and count b-nested common intervals from a PQ-tree.

An interval is b-nested when it is a singleton or strictly contains another
b-nested interval of the family losing at most b elements.  The family only
grows with b, so every tree node has a threshold bstar, the least b at which
its interval is b-nested.  One post-order pass (annotate) computes them all,
children first:

  leaf    bstar = 1,
  P-node  bstar = max(1, min over children c of max(bstar(c), size - size(c))),
          since it is b-nested iff some b-nested child has size >= size - b,
  Q-node  bstar = max(s2, min(s1, bstar(c1))), with s1 >= s2 the two largest
          child sizes and c1 a largest child, since it is b-nested iff at
          most one child is b-large (size > b) and any such child is itself
          b-nested.

The pass runs once per tree; the readers below test b >= bstar, so a sweep
over many b costs one pass plus one scan or count per b.

Weak intervals (unions of >= 2 consecutive Q-children) follow the Q rule
restricted to their child segment, which gives a left-to-right scan per
Q-node: start at each child, extend right while the segment holds at most
one b-large child and every included b-large child is b-nested.  With the
next b-large child precomputed, each start jumps to its stop in O(1), a
bisect on the right ends honours min_size, and the run is one (lo, ends) slice
(flattened by the public enumerator): one step per child plus one per output.

Counting replaces the scan by two closed forms over the child sequence of
each Q-node: a maximal run of h consecutive b-small children contributes
h*(h-1)/2 segment pairs, and each b-large b-nested child with l (resp. r)
b-small neighbors immediately left (right) contributes l*(r+1)+r pairs
spanning it.  The full child segment is one of those pairs exactly when the
node is b-nested, so the node interval is never added separately for
Q-nodes; P-nodes and leaves add 1 when b-nested.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat

from .pqtree import PQNode, PQTree


@dataclass
class ScanStats:
    """Work counter of the enumeration scans, for output-sensitivity checks:
    one step per start child (or start frontier) plus one per emitted
    interval."""

    iterations: int = 0


def _check_b(b: int) -> None:
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")


def annotate(tree: PQTree) -> None:
    """Set node.bstar on every node, children first.  Runs once per tree;
    later calls return at once (trees are never changed after build)."""
    if tree.annotated:
        return
    for node in tree.nodes:  # post-order: children first
        kids = node.children
        if not kids:
            node.bstar = 1
        elif node.kind == "P":
            # Every term is >= bstar(c) >= 1, so no clamp to 1 is needed.
            size = node.size
            node.bstar = min(max(c.bstar, size - c.size) for c in kids)
        else:
            s1 = s2 = 0
            c1 = None
            for c in kids:
                z = c.size
                if z > s1:
                    s1, s2, c1 = z, s1, c
                elif z > s2:
                    s2 = z
            node.bstar = max(s2, min(s1, c1.bstar))
    tree.annotated = True


def _scan_qnode(node, b, min_size, stats):
    kids = node.children
    m = len(kids)
    his = [c.hi for c in kids]
    next_large = [m] * (m + 1)  # least index >= t of a b-large child, else m
    for t in range(m - 1, -1, -1):
        next_large[t] = t if kids[t].size > b else next_large[t + 1]
    iters = m
    for a in range(m):
        kid = kids[a]
        d = next_large[a + 1]
        if kid.size > b:
            if b < kid.bstar:
                continue
            stop = d
        elif d < m and b >= kids[d].bstar:
            stop = next_large[d + 1]
        else:
            stop = d
        lo = kid.lo
        start = bisect_left(his, lo + min_size - 1, a + 1, stop)
        k = stop - start
        if k > 0:
            yield lo, his[start:stop]
            iters += k
    if stats is not None:
        stats.iterations += iters


def _common_runs(tree: PQTree, b: int, min_size: int = 1, stats: ScanStats | None = None):
    """enumerate_b_nested_common's output, in order, as nonempty (lo, ascending ends) runs."""
    _check_b(b)
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    annotate(tree)
    for node in tree.nodes:
        if node.is_leaf:
            if min_size <= 1:
                yield node.lo, (node.hi,)
        elif node.kind == "P":
            if b >= node.bstar and node.size >= min_size:
                yield node.lo, (node.hi,)
        else:
            yield from _scan_qnode(node, b, min_size, stats)


def enumerate_b_nested_common(tree: PQTree, b: int, min_size: int = 1, stats: ScanStats | None = None):
    """Yield each b-nested common interval of size >= min_size once, as (lo, hi).

    Order is deterministic: post-order over nodes; a leaf yields its
    singleton, a P-node its own interval when b-nested, and a Q-node the
    scan output in lexicographic (start child, end child) order.  The full
    child segment of a Q-node appears in its scan exactly when the node is
    b-nested, so node intervals are never emitted twice.
    """
    for lo, ends in _common_runs(tree, b, min_size, stats):
        yield from zip(repeat(lo), ends)


def qnode_count_parts(node: PQNode, b: int) -> tuple:
    """Closed-form count pieces for one Q-node of an annotated tree.

    Returns (large_terms, run_terms): one l*(r+1)+r term per b-large
    b-nested child, one h*(h-1)/2 term per maximal run of h consecutive
    b-small children.  Their sum equals the node's scan output with
    min_size <= 2.
    """
    runs = []  # b-small run lengths: one before each b-large child, one last
    nested = []  # per b-large child: is it b-nested
    h = 0
    for c in node.children:
        if c.size <= b:
            h += 1
        else:
            runs.append(h)
            nested.append(b >= c.bstar)
            h = 0
    runs.append(h)
    large_terms = [runs[g] * (runs[g + 1] + 1) + runs[g + 1] for g, ok in enumerate(nested) if ok]
    run_terms = [h * (h - 1) // 2 for h in runs if h]
    return large_terms, run_terms


def count_b_nested_common(tree: PQTree, b: int, min_size: int = 1) -> int:
    """Number of b-nested common intervals, without enumerating.

    Supports min_size 1 and 2 (all Q-scan output has size >= 2, so the two
    differ only by the n singletons); larger thresholds would need the
    enumeration path.
    """
    _check_b(b)
    if min_size not in (1, 2):
        raise ValueError(f"count supports min_size 1 or 2, got {min_size}")
    annotate(tree)
    total = tree.n if min_size == 1 else 0
    for node in tree.nodes:
        if node.is_leaf:
            continue
        if node.kind == "P":
            if b >= node.bstar:
                total += 1
        else:
            large_terms, run_terms = qnode_count_parts(node, b)
            total += sum(large_terms) + sum(run_terms)
    return total
