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

The pass runs once per tree, and the readers below test b >= bstar.

One step scan (_scan) enumerates both families.  A node is a sequence of
steps over ascending ends f: step t spans (f[t]+d .. f[t+1]), has width
w_t = f[t+1] - f[t] and threshold tau_t, and is a gap at b if w_t > b.  A
Q-node's steps are its children (f = lo - 1 then the child his, tau their
bstar, d = 1, since weak intervals are unions of >= 2 consecutive
children); a conserved node's are its frontier steps (conserved_enum,
d = 0).  A run of steps is b-nested iff it holds at most one gap, and that
one good (b >= tau).  With the next gap precomputed, each start jumps to its
last end in O(1), a bisect on the ends honours min_size, and the run is one
uncopied window (lo, f, i, j) of ends f[i:j] (flattened by the public
enumerators): one step per start plus one per output.

Counting uses the same steps.  At b a maximal run of h plain steps gives
h*(h+1)/2 - d*h weak intervals and a good gap with l and r plain neighbours
(l+1)*(r+1) - d.  The full segment is among them iff the node is b-nested,
so Q-nodes add no node term; P-nodes add 1 from bstar on.  A node whose
widest step is <= b is closed and adds its all-plain constant, so one index
per tree keeps closing points with prefix sums: a count at b is one bisect
plus the wide (w >= 2) steps of the nodes wider than b.
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


def _scan(f, tau, b, min_size, d, full_last=False):
    """Yield the nonempty runs of one node's steps at b, one window (f[a] + d,
    f, i, j) of ends f[i:j] per start step a, and return the scan work.
    full_last leaves out the full run (a conserved node emits it last)."""
    s = len(tau)
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
    i, j) of ascending ends[i:j] over a Q-node's f, or over one shared range."""
    _check_b(b, min_size)
    annotate(tree)
    ends = range(tree.n + 1)
    iters = 0
    for node in tree.nodes:
        if node.kind == "Q":
            kids = node.children
            f = [node.lo - 1] + [c.hi for c in kids]
            iters += yield from _scan(f, [c.bstar for c in kids], b, min_size, 1)
        elif b >= node.bstar and node.size >= min_size:  # a leaf has bstar and size 1
            yield node.lo, ends, node.hi, node.hi + 1
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
    kids = node.children
    return _step_terms([(t, c.size, c.bstar) for t, c in enumerate(kids)], len(kids), b, 1)


def _common_steps(tree: PQTree) -> tuple:
    annotate(tree)
    breaks, step_nodes = [], []
    for node in tree.nodes:
        kids = node.children
        if node.kind == "P":
            breaks.append((node.bstar, 1))
        elif kids:  # the child sizes sum to size: all are leaves when size == h
            h = len(kids)
            step_nodes.append((h, [(t, c.size, c.bstar) for t, c in enumerate(kids) if c.size > 1]
                               if node.size > h else ()))
    return breaks, step_nodes, 1


def count_b_nested_common(tree: PQTree, b: int, min_size: int = 1) -> int:
    """Number of b-nested common intervals, without enumerating.

    Supports min_size 1 and 2 (all Q-scan output has size >= 2, so the two
    differ only by the n singletons); larger thresholds would need the
    enumeration path.
    """
    return _count(tree, b, min_size, _common_steps)
