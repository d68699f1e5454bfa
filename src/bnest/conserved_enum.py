"""Enumerate and count b-nested conserved intervals on the inclusion tree.

Every conserved interval of size >= 2 is a frontier pair (f_i..f_j) of
exactly one strong node (the node interval itself being the full pair), so
verdicts localize to the frontier steps of each node.  A step (f_l..f_{l+1})
of size > b+1 is a gap; a gap is good when some b-nested strong child lying
in that step has size >= step size - b.  A frontier pair is b-nested exactly
when the steps it spans contain no bad gap and at most one gap, that one
good; in particular a node's own interval is b-nested iff it has no gap or
exactly one, good.  Children report their verdicts to the parent step they
sit in (their L_link), so one post-order pass annotates the whole tree.

Enumeration scans each node's frontiers.  With the next gap step
precomputed, each start jumps in O(1) to its last end (the frontier opening
the first bad gap, or the next gap past one good gap), a bisect honours
min_size, and the run of ends is emitted in bulk as plain (lo, hi) tuples;
the full pair is left out, and the node interval follows when b-nested.

Counting uses per-node closed forms: a maximal run of h consecutive small
steps holds h*(h+1)/2 pairs, and the pairs whose single gap is the good gap
g number (l+1)*(r+1), with l and r the lengths of the small runs flanking g.
Those two families partition all admissible pairs including the full one,
so the totals match enumeration with no separate node term.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat

from .conserved_tree import ConservedNode, ConservedTree
from .common_enum import ScanStats

STEP_PLAIN = "none"
STEP_GAP = "gap"
STEP_GOOD = "good_gap"


@dataclass(eq=False)
class GapAnnotation:
    node: ConservedNode
    gap_at: list  # per frontier step: STEP_PLAIN, STEP_GAP or STEP_GOOD
    node_b_nested: bool


def annotate_conserved(tree: ConservedTree, b: int) -> dict:
    """Per-node gap classification and b-nested verdict, bottom-up."""
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    ann = {}
    for node in tree.nodes:  # post-order: children first
        f = node.frontiers
        best = [0] * max(len(f) - 1, 1)  # largest b-nested child per step
        for c in node.children:
            if ann[c].node_b_nested and c.size > best[c.parent_step]:
                best[c.parent_step] = c.size
        gap_at = []
        gaps = goods = 0
        for t in range(len(f) - 1):
            size = f[t + 1] - f[t] + 1
            if size <= b + 1:
                gap_at.append(STEP_PLAIN)
            elif best[t] >= size - b:
                gap_at.append(STEP_GOOD)
                gaps += 1
                goods += 1
            else:
                gap_at.append(STEP_GAP)
                gaps += 1
        nested = gaps == 0 or (gaps == 1 and goods == 1)
        ann[node] = GapAnnotation(node, gap_at, nested)
    return ann


def weak_b_nested(node: ConservedNode, b: int, ann: GapAnnotation) -> dict:
    """Verdict for every frontier pair of the node, keyed by index pair.

    (f_i..f_j) is b-nested iff steps i..j-1 hold no bad gap and at most one
    gap.  Includes the full pair (0, |F|-1), whose verdict equals
    node_b_nested.
    """
    gap_at = ann.gap_at
    m = len(node.frontiers)
    bad = [0] * m  # prefix counts over steps
    good = [0] * m
    for t in range(m - 1):
        bad[t + 1] = bad[t] + (gap_at[t] == STEP_GAP)
        good[t + 1] = good[t] + (gap_at[t] == STEP_GOOD)
    out = {}
    for i in range(m):
        for j in range(i + 1, m):
            out[(i, j)] = bad[j] == bad[i] and good[j] - good[i] <= 1
    return out


def enumerate_b_nested_conserved(tree: ConservedTree, b: int, min_size: int = 1,
                                 stats: ScanStats | None = None):
    """Yield each b-nested conserved interval of size >= min_size once, as (lo, hi).

    Order: singletons first when min_size is 1, then post-order over nodes,
    per node the admissible frontier pairs in lexicographic index order with
    the full pair excluded, then the node interval itself when b-nested.
    """
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    ann = annotate_conserved(tree, b)
    if min_size <= 1:
        units = range(1, tree.n + 1)
        yield from zip(units, units)
    node_min = max(2, min_size)
    iters = 0
    for node in tree.nodes:
        f = node.frontiers
        s = len(f) - 1  # number of steps
        gap_at = ann[node].gap_at
        next_gap = [s] * (s + 1)  # least step index >= t that is a gap, else s
        for t in range(s - 1, -1, -1):
            next_gap[t] = next_gap[t + 1] if gap_at[t] == STEP_PLAIN else t
        iters += s
        for i in range(s):
            p = next_gap[i]
            last = next_gap[p + 1] if p < s and gap_at[p] == STEP_GOOD else p
            if i == 0 and last == s:
                last -= 1  # the full pair is the node interval, emitted below
            lo = f[i]
            start = bisect_left(f, lo + min_size - 1, i + 1, last + 1)
            k = last + 1 - start
            if k > 0:
                iters += k
                yield from zip(repeat(lo, k), f[start:last + 1])
        if ann[node].node_b_nested and node.size >= node_min:
            yield tuple(node.interval)
    if stats is not None:
        stats.iterations += iters


def node_count_parts(node: ConservedNode, ann: GapAnnotation) -> tuple:
    """Closed-form count pieces for one node's frontier pairs.

    Returns (gap_terms, run_terms): (l+1)*(r+1) per good gap, h*(h+1)/2 per
    maximal run of h small steps.  Together they count every admissible
    pair, the full one included, so the node interval needs no extra term.
    """
    gap_at = ann.gap_at
    s = len(node.frontiers) - 1  # number of steps
    run_len = [0] * (s + 1)
    for t in range(s):
        run_len[t + 1] = run_len[t] + 1 if gap_at[t] == STEP_PLAIN else 0
    suffix = [0] * (s + 1)
    for t in range(s - 1, -1, -1):
        suffix[t] = suffix[t + 1] + 1 if gap_at[t] == STEP_PLAIN else 0
    gap_terms = []
    run_terms = []
    for t in range(s):
        if gap_at[t] == STEP_GOOD:
            gap_terms.append((run_len[t] + 1) * (suffix[t + 1] + 1))
        elif gap_at[t] == STEP_PLAIN and (t + 1 == s or gap_at[t + 1] != STEP_PLAIN):
            h = run_len[t + 1]
            run_terms.append(h * (h + 1) // 2)
    return gap_terms, run_terms


def count_b_nested_conserved(tree: ConservedTree, b: int, min_size: int = 1) -> int:
    """Number of b-nested conserved intervals, without enumerating.

    Supports min_size 1 and 2 (frontier pairs always have size >= 2, so the
    two differ only by the n singletons).
    """
    if min_size not in (1, 2):
        raise ValueError(f"count supports min_size 1 or 2, got {min_size}")
    ann = annotate_conserved(tree, b)
    total = tree.n if min_size == 1 else 0
    for node in tree.nodes:
        gap_terms, run_terms = node_count_parts(node, ann[node])
        total += sum(gap_terms) + sum(run_terms)
    return total
