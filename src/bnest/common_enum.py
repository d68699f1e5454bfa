"""Enumerate and count b-nested common intervals from a PQ-tree.

An interval is b-nested when it is a singleton or strictly contains another
b-nested interval of the family losing at most b elements.  On the PQ-tree
the verdict localizes per node, children first:

  leaf    always b-nested,
  P-node  b-nested iff some child is b-nested with size >= node size - b,
  Q-node  b-nested iff at most one child is b-large (size > b) and any
          such child is itself b-nested.

Weak intervals (unions of >= 2 consecutive Q-children) follow the same rule
restricted to their child segment, which gives a left-to-right scan per
Q-node: start at each child, extend right while the segment holds at most
one b-large child and every included b-large child is b-nested.  With the
next b-large child precomputed, each start jumps to its stop in O(1), a
bisect on the right ends honours min_size, and the run of ends is emitted in
bulk as plain (lo, hi) tuples: one step per child plus one per output.

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


@dataclass(eq=False)
class NodeAnnotation:
    node: PQNode
    size: int
    b_nested: bool


@dataclass
class ScanStats:
    """Work counter of the enumeration scans, for output-sensitivity checks:
    one step per start child (or start frontier) plus one per emitted
    interval."""

    iterations: int = 0


def annotate(tree: PQTree, b: int) -> dict:
    """Per-node b-nested verdicts, bottom-up.  Keyed by node identity."""
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    ann = {}
    for node in tree.nodes:  # post-order: children first
        if node.is_leaf:
            nested = True
        elif node.kind == "P":
            need = node.size - b
            nested = any(ann[c].b_nested and c.size >= need for c in node.children)
        else:
            larges = [c for c in node.children if c.size > b]
            nested = len(larges) <= 1 and all(ann[c].b_nested for c in larges)
        ann[node] = NodeAnnotation(node, node.size, nested)
    return ann


def _scan_qnode(node, b, ann, min_size, out, stats):
    kids = node.children
    m = len(kids)
    his = [c.interval[1] for c in kids]
    next_large = [m] * (m + 1)  # least index >= t of a b-large child, else m
    for t in range(m - 1, -1, -1):
        next_large[t] = t if kids[t].size > b else next_large[t + 1]
    iters = m
    for a in range(m):
        kid = kids[a]
        d = next_large[a + 1]
        if kid.size > b:
            if not ann[kid].b_nested:
                continue
            stop = d
        elif d < m and ann[kids[d]].b_nested:
            stop = next_large[d + 1]
        else:
            stop = d
        lo = kid.interval[0]
        start = bisect_left(his, lo + min_size - 1, a + 1, stop)
        k = stop - start
        if k > 0:
            out.extend(zip(repeat(lo, k), his[start:stop]))
            iters += k
    if stats is not None:
        stats.iterations += iters


def enumerate_b_nested_common(tree: PQTree, b: int, min_size: int = 1, stats: ScanStats | None = None):
    """Yield each b-nested common interval of size >= min_size once, as (lo, hi).

    Order is deterministic: post-order over nodes; a leaf yields its
    singleton, a P-node its own interval when b-nested, and a Q-node the
    scan output in lexicographic (start child, end child) order.  The full
    child segment of a Q-node appears in its scan exactly when the node is
    b-nested, so node intervals are never emitted twice.
    """
    ann = annotate(tree, b)
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    for node in tree.nodes:
        if node.is_leaf:
            if min_size <= 1:
                yield tuple(node.interval)
        elif node.kind == "P":
            if ann[node].b_nested and node.size >= min_size:
                yield tuple(node.interval)
        else:
            out = []
            _scan_qnode(node, b, ann, min_size, out, stats)
            yield from out


def qnode_count_parts(node: PQNode, b: int, ann: dict) -> tuple:
    """Closed-form count pieces for one Q-node.

    Returns (large_terms, run_terms): one l*(r+1)+r term per b-large
    b-nested child, one h*(h-1)/2 term per maximal run of h consecutive
    b-small children.  Their sum equals the node's scan output with
    min_size <= 2.
    """
    kids = node.children
    m = len(kids)
    small = [c.size <= b for c in kids]
    run_len = [0] * (m + 1)  # run_len[t] = length of small run ending at t-1
    for t in range(m):
        run_len[t + 1] = run_len[t] + 1 if small[t] else 0
    suffix = [0] * (m + 1)  # smalls starting at t
    for t in range(m - 1, -1, -1):
        suffix[t] = suffix[t + 1] + 1 if small[t] else 0
    large_terms = []
    run_terms = []
    for t in range(m):
        if not small[t]:
            if ann[kids[t]].b_nested:
                l, r = run_len[t], suffix[t + 1]
                large_terms.append(l * (r + 1) + r)
        elif t + 1 == m or not small[t + 1]:
            h = run_len[t + 1]
            run_terms.append(h * (h - 1) // 2)
    return large_terms, run_terms


def count_b_nested_common(tree: PQTree, b: int, min_size: int = 1) -> int:
    """Number of b-nested common intervals, without enumerating.

    Supports min_size 1 and 2 (all Q-scan output has size >= 2, so the two
    differ only by the n singletons); larger thresholds would need the
    enumeration path.
    """
    if min_size not in (1, 2):
        raise ValueError(f"count supports min_size 1 or 2, got {min_size}")
    ann = annotate(tree, b)
    total = tree.n if min_size == 1 else 0
    for node in tree.nodes:
        if node.is_leaf:
            continue
        if node.kind == "P":
            if ann[node].b_nested:
                total += 1
        else:
            large_terms, run_terms = qnode_count_parts(node, b, ann)
            total += sum(large_terms) + sum(run_terms)
    return total

