"""Enumerate and count b-nested conserved intervals on the inclusion tree.

Every conserved interval of size >= 2 is a frontier pair (f_i..f_j) of
exactly one strong node (the node interval itself being the full pair), so
verdicts localize to the frontier steps of each node.  A step (f_l..f_{l+1})
of size z > b+1 is a gap; a gap is good when some b-nested strong child lying
in that step has size >= z - b, and bad otherwise.  A frontier pair is
b-nested exactly when the steps it spans contain no bad gap and at most one
gap, that one good; in particular a node's own interval is b-nested iff it
has no gap or exactly one, good.

All of these verdicts only improve as b grows, so each is a threshold,
computed once per tree by one post-order pass (annotate_conserved).
Children sit in one parent step each (their parent_step), and step t of
size z_t is plain or a good gap iff b >= tau_t, where

  tau_t = min(z_t - 1, min over children c in step t of
                       max(bstar(c), z_t - size(c))),
  bstar = max(1, max_t tau_t, second-largest z_t - 1),

the second-largest term saying that at most one step may be a gap.  A step
is plain iff b >= z_t - 1, a good gap iff z_t - 1 > b >= tau_t, and a bad
gap otherwise.

Enumeration runs common_enum's step scan over each node's frontiers
(f = frontiers, tau, d = 0), with the full pair held back: the node
interval follows its pairs if b-nested.

Counting runs common_enum's step counter with w_t = z_t - 1 and d = 0: a
maximal run of h plain steps holds h*(h+1)/2 pairs and a good gap with l
and r plain neighbours (l+1)*(r+1), the full pair included, so the node
interval needs no separate term.  A node whose widest step is <= b is
closed and adds h*(h+1)/2 for its h steps; a count sums the closed nodes
by one bisect and the steps of the nodes wider than b.
"""
from __future__ import annotations

from itertools import repeat
from operator import sub

from .conserved_tree import ConservedNode, ConservedTree
from .common_enum import ScanStats, _check_b, _count, _scan, _step_terms


def annotate_conserved(tree: ConservedTree) -> None:
    """Set node.tau and node.bstar on every node, children first.  Runs
    once per tree; later calls return at once (trees are never changed
    after build)."""
    if tree.annotated:
        return
    for node in tree.nodes:  # post-order: children first
        f = node.frontiers
        tau = [f[t + 1] - f[t] for t in range(len(f) - 1)]  # z_t - 1 to start
        w1 = w2 = 1  # the two largest z_t - 1, floored at 1
        for w in tau:
            if w > w2:
                if w > w1:
                    w1, w2 = w, w1
                else:
                    w2 = w
        for c in node.children:
            t = c.parent_step
            good = f[t + 1] - f[t] + 1 - c.size
            if c.bstar > good:
                good = c.bstar
            if good < tau[t]:
                tau[t] = good
        node.tau = tau
        node.bstar = max(w2, max(tau)) if tau else 1
    tree.annotated = True


def _conserved_runs(tree: ConservedTree, b: int, min_size: int = 1, stats: ScanStats | None = None):
    """enumerate_b_nested_conserved's output, in order, as nonempty windows (lo,
    ends, i, j) of ascending ends[i:j] over a node's frontiers, or one shared range."""
    _check_b(b, min_size)
    annotate_conserved(tree)
    ends = range(tree.n + 2)  # ends[v] == v; a unit's window ends at index v + 1
    if min_size <= 1:
        yield from zip(ends[1:-1], repeat(ends), ends[1:-1], ends[2:])
    node_min = max(2, min_size)
    iters = 0
    for node in tree.nodes:
        iters += yield from _scan(node.frontiers, node.tau, b, min_size, 0, full_last=True)
        if b >= node.bstar and node.size >= node_min:
            yield node.lo, ends, node.hi, node.hi + 1
    if stats is not None:
        stats.iterations += iters


def enumerate_b_nested_conserved(tree: ConservedTree, b: int, min_size: int = 1,
                                 stats: ScanStats | None = None):
    """Yield each b-nested conserved interval of size >= min_size once, as (lo, hi).

    Order: singletons first when min_size is 1, then post-order over nodes,
    per node the admissible frontier pairs in lexicographic index order with
    the full pair excluded, then the node interval itself when b-nested.
    """
    for lo, ends, i, j in _conserved_runs(tree, b, min_size, stats):
        if j - i == 1:
            yield lo, ends[i]
        else:
            yield from zip(repeat(lo), ends[i:j])


def node_count_parts(node: ConservedNode, b: int) -> tuple:
    """Count pieces of one node of an annotated tree: (gap_terms,
    run_terms), (l+1)*(r+1) per good gap and h*(h+1)/2 per run of h small
    steps, counting every admissible pair, the full one included."""
    f, tau = node.frontiers, node.tau
    return _step_terms([(t, f[t + 1] - f[t], tau[t]) for t in range(len(tau))], len(tau), b, 0)


def _conserved_steps(tree: ConservedTree) -> tuple:
    annotate_conserved(tree)
    step_nodes = []
    for node in tree.nodes:
        f, tau = node.frontiers, node.tau
        h = len(tau)  # the widths sum to size - 1: all are 1 when size - 1 == h
        step_nodes.append((h, [(t, w, tau[t]) for t, w in enumerate(map(sub, f[1:], f)) if w > 1]
                           if node.size - 1 > h else ()))
    return [], step_nodes, 0


def count_b_nested_conserved(tree: ConservedTree, b: int, min_size: int = 1) -> int:
    """Number of b-nested conserved intervals, without enumerating.

    Supports min_size 1 and 2 (frontier pairs always have size >= 2, so the
    two differ only by the n singletons).
    """
    return _count(tree, b, min_size, _conserved_steps)
