"""Enumerate and count b-nested common intervals from a PQ-tree.

An interval is b-nested when it is a singleton or strictly contains another
b-nested interval of the family losing at most b elements.  The family only
grows with b, so every node has a threshold bstar, the least b at which its
interval is b-nested.  One post-order pass (annotate) sets them all on the
stored nodes, a leaf having size and bstar 1:

  P-node  bstar = max(1, min over children c of max(bstar(c), size - size(c))):
          b-nested iff some b-nested child has size >= size - b,
  Q-node  bstar = max(s2, min(s1, bstar(c1))), s1 >= s2 the two largest
          child sizes and c1 a largest child: b-nested iff at most one
          child is b-large (size > b), and that one is b-nested.

One step scan (_scan) enumerates both families.  A node is a sequence of
steps over ascending ends f: step t spans (f[t]+d .. f[t+1]), has width
w_t = f[t+1] - f[t] and threshold tau_t, and is a gap at b if w_t > b.  A
Q-node's steps are its children (f its ends, tau their bstar, d = 1, as
weak intervals are unions of >= 2 consecutive children); a conserved
node's are its frontier steps (conserved_enum, d = 0).  A run of steps is
b-nested iff it holds at most one gap, and that one good (b >= tau).  With
the next gap precomputed each start jumps to its last end, a bisect on the
ends honours min_size, and the run is one uncopied window (lo, f, i, j) of
ends f[i:j]: one step per start plus one per output.

Counting uses the same steps.  At b a maximal run of h plain steps gives
h*(h+1)/2 - d*h weak intervals, and a good gap with l and r plain
neighbours (l+1)*(r+1) - d.  The full segment is among them iff the node is
b-nested, so Q-nodes add no node term; P-nodes add 1 from bstar on.  A node
whose widest step is <= b is closed and adds its all-plain constant, so the
tree's index keeps closing points with prefix sums: a count at b is one
bisect plus the wide (w >= 2) steps of the nodes wider than b.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, repeat
from operator import itemgetter

from .pqtree import PQNode, PQTree


class ScanStats:
    """Work counter of the enumeration scans, for output-sensitivity checks:
    one step per start child (or start frontier) plus one per emitted
    interval.  Mutable: the scans add to `iterations`."""

    __slots__ = ("iterations",)

    def __init__(self, iterations: int = 0):
        self.iterations = iterations


def _check_b(b: int, min_size: int = 1) -> None:
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")


def annotate(tree: PQTree) -> None:
    """Set node.bstar on every stored node, children first, once per tree:
    trees never change after build, so later calls return at once."""
    if tree.annotated:
        return
    for node in tree.nodes:  # post-order: children first
        kids = node.children
        if node.kind == "P":
            # Terms are >= bstar(c) >= 1; a leaf's, size - 1, tops the rest.
            size = node.size
            node.bstar = min((max(c.bstar, size - c.size) for c in kids), default=size - 1)
        else:
            # Floors of 1 for the leaves, also the stored leaf of n = 1.
            s1 = s2 = b1 = 1
            for c in kids:
                z = c.size
                if z > s1:
                    s1, s2, b1 = z, s1, c.bstar
                elif z > s2:
                    s2 = z
            node.bstar = max(s2, min(s1, b1))
    tree.annotated = True


def _scan(f, tau, b, min_size, d, full_last=False):
    """Yield the nonempty runs of one node's steps at b, one window (f[a] + d,
    f, i, j) of ends f[i:j] per start step a, and return the scan work.
    tau is read at gaps only.  full_last leaves out the full run (a
    conserved node emits it last)."""
    s = len(f) - 1
    next_gap = [s] * (s + 1)  # least step index >= t that is a gap, else s
    gap = s
    for t in range(s - 1, -1, -1):
        if f[t + 1] - f[t] > b:
            gap = t
        next_gap[t] = gap
    iters = s
    for a in range(s):
        p = next_gap[a]
        stop = next_gap[p + 1] if p < s and b >= tau[p] else p
        if full_last and a == 0 and stop == s:
            stop -= 1
        lo = f[a] + d
        start = bisect_left(f, lo + min_size - 1, a + 1 + d, stop + 1)
        if start <= stop:
            iters += stop + 1 - start
            yield lo, f, start, stop + 1
    return iters


def _common_runs(tree: PQTree, b: int, min_size: int = 1, stats: ScanStats | None = None):
    """enumerate_b_nested_common's output, in order, as nonempty windows (lo, ends,
    i, j) of ascending ends[i:j] over a Q-node's ends, or over one shared range."""
    _check_b(b, min_size)
    annotate(tree)
    ends = range(tree.n + 1)
    node_min = max(2, min_size)  # singletons go out as leaves
    last = 0  # the last leaf gone out
    iters = 0
    for node in tree.nodes:
        if min_size <= 1 and node.hi > last:  # in post-order, the leaves up to node.hi
            labels = range(last + 1, node.hi + 1)
            yield from zip(labels, repeat(ends), labels, range(last + 2, node.hi + 2))
            last = node.hi
        if node.kind == "Q":
            tau = {c.parent_step: c.bstar for c in node.children}
            iters += yield from _scan(node.ends, tau, b, min_size, 1)
        elif b >= node.bstar and node.size >= node_min:
            yield node.lo, ends, node.hi, node.hi + 1
    if stats is not None:
        stats.iterations += iters


def enumerate_b_nested_common(tree: PQTree, b: int, min_size: int = 1, stats: ScanStats | None = None):
    """Yield each b-nested common interval of size >= min_size once, as (lo, hi).

    Order is deterministic: post-order over the tree and its leaves; a leaf
    yields its singleton, a P-node its interval when b-nested, and a Q-node
    its scan output in (start child, end child) order, which holds the full
    segment exactly when the node is b-nested: no interval comes twice.
    """
    for lo, ends, i, j in _common_runs(tree, b, min_size, stats):
        if j - i == 1:
            yield lo, ends[i]
        else:
            yield from zip(repeat(lo), ends[i:j])


def _step_terms(steps, h: int, b: int, d: int) -> tuple:
    """(gap_terms, run_terms) of one node with h steps at b, given its
    (t, w, tau) in step order, at least those with w > b."""
    runs = []  # plain run lengths: one before each gap, one last
    good = []  # per gap: is it good
    last = -1
    for t, w, tau in steps:
        if w > b:
            runs.append(t - last - 1)
            good.append(b >= tau)
            last = t
    runs.append(h - 1 - last)
    gap_terms = [(runs[g] + 1) * (runs[g + 1] + 1) - d for g, ok in enumerate(good) if ok]
    run_terms = [x * (x + 1) // 2 - d * x for x in runs if x]
    return gap_terms, run_terms


def _count(tree, b: int, min_size: int, steps) -> int:
    """Both counters.  steps(tree) gives (breaks, step_nodes, d): (bstar, 1)
    per P-node and (h, wide) per Q or conserved node, wide its steps with
    w >= 2.  They become the tree's index once: sorted closing points with
    prefix sums over a base of the nodes with no wide step, and the nodes
    with one sorted by width."""
    _check_b(b)
    if min_size not in (1, 2):
        raise ValueError(f"count supports min_size 1 or 2, got {min_size}")
    index = getattr(tree, "step_index", None)
    if index is None:
        breaks, step_nodes, d = steps(tree)
        opens = []
        base = 0  # the nodes of width 1, closed at every b
        for h, wide in step_nodes:
            closed = h * (h + 1) // 2 - d * h
            if wide:
                width = max([w for _, w, _ in wide])
                breaks.append((width, closed))
                opens.append((width, h, wide))
            else:
                base += closed
        breaks.sort()
        opens.sort(key=itemgetter(0))
        prefix = list(accumulate([v for _, v in breaks], initial=base))
        index = tree.step_index = (breaks, prefix, opens, d)
    breaks, prefix, opens, d = index
    total = (tree.n if min_size == 1 else 0) + prefix[bisect_right(breaks, b, key=itemgetter(0))]
    for _, h, wide in opens[bisect_right(opens, b, key=itemgetter(0)):]:
        gap_terms, run_terms = _step_terms(wide, h, b, d)
        total += sum(gap_terms) + sum(run_terms)
    return total


def qnode_count_parts(node: PQNode, b: int) -> tuple:
    """Count pieces of one Q-node of an annotated tree: (large_terms,
    run_terms), l*(r+1)+r per b-large b-nested child and h*(h-1)/2 per run
    of h b-small children, summing to its scan output at min_size <= 2."""
    wide = [(c.parent_step, c.size, c.bstar) for c in node.children]
    return _step_terms(wide, len(node.ends) - 1, b, 1)


def _common_steps(tree: PQTree) -> tuple:
    annotate(tree)
    breaks, step_nodes = [], []
    for node in tree.nodes:
        if node.kind == "P":
            breaks.append((node.bstar, 1))
        elif node.kind == "Q":
            step_nodes.append((len(node.ends) - 1, [(c.parent_step, c.size, c.bstar) for c in node.children]))
    return breaks, step_nodes, 1


def count_b_nested_common(tree: PQTree, b: int, min_size: int = 1) -> int:
    """Number of b-nested common intervals, without enumerating.

    Supports min_size 1 and 2 (all Q-scan output has size >= 2, so the two
    differ only by the n singletons); larger thresholds would need the
    enumeration path.
    """
    return _count(tree, b, min_size, _common_steps)
