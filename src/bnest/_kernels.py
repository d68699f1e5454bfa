"""Generator kernels behind tree construction.

The only heavy step in the whole package is computing, for each left end i,
the furthest right end R[i] such that (i..j) is a common interval, and the
mirror image L[j].  Everything downstream (strong intervals, trees, scans) is
linear-time bookkeeping as well.  Labels here are 0-based; a row is a
permutation's `positions` tuple, so positions are 1-based.

Per permutation.  Fix one row Q (label -> position).  Let A(i) be the
maximal run of positions around Q[i] whose labels are all >= i, and Sup(i)
the largest j such that labels i..j all lie in A(i); mirror-wise B(j) is
the run of labels <= j around Q[j], and Inf(j) the smallest i such that
labels i..j all lie in B(j).  Then (i..j) is common to the identity and Q
exactly when j <= Sup(i) and Inf(j) <= i: the positions of i..j form a block
holding only labels of [i..j], and such a block holds Q[i] and Q[j], so it
lies in A(i) and B(j); conversely, labels i..j all inside A(i) and B(j)
span positions holding only labels of [i..j], which is that block.

Sup comes from one sweep of i downward that switches on position Q[i] and
merges it with the runs on either side, found through run-endpoint arrays.
The minimum label of each live run sits in an ascending linked list headed
by i, so Sup(i) is the next minimum in the list, minus 1.  Each step is
O(1).  Inf is the mirror image of Sup: Sup of the reversed row (labels
complemented), reversed and complemented back.

Intersection.  Membership is a conjunction over the permutations, so the
elementwise min R0 of the Sups and max L0 of the Infs are exact bounds:
(i..j) is common iff j <= R0[i] and L0[j] <= i.  Each sweep lowers the
running minimum as it goes, so no per-row list is kept.  They need not be
canonical; one DSU pass makes R so, and the same pass on the mirror image
makes L so.  The conserved family uses the same sweep with each label's
orientation: a label that must open its block shuts out the run on its
left, so Sup(i) = min(f, m) - 1 with m the minimum label of that run and f
the next minimum in the list; one that must close it shuts out its right
run.  Inf sweeps complemented labels, so there the shut-out side flips.
The whole generator is O(Kn) Python steps on lists, plus the built-in sort
that orders each DSU pass's kills (Bergeron, Chauve, de Montgolfier &
Raffinot, SIAM J. Discrete Math. 22(3), 2008).
"""
from __future__ import annotations

from operator import not_


def _sup(row, side, bound: list) -> None:
    """Lower bound[i] to Sup(i) for each label i of one row (label -> 1-based
    position).  With side, a per-label list, label i must end its block on
    one side: the run it merges on its left (side[i] true) or right is shut out."""
    n = len(row)
    head = n + 1  # list sentinel before the smallest minimum; n follows the last
    nxt = [n] * (n + 2)
    prv = [head] * (n + 2)
    # Positions 0 and n + 1 stay dead.  A live run [a..b] keeps
    # other[a] = b, other[b] = a and its minimum label in low[a] and
    # low[b]; other[x] == 0 marks a dead position.
    other = [0] * (n + 2)
    low = [0] * (n + 2)
    for i in range(n - 1, -1, -1):
        p = row[i]
        a = b = p
        ml = mr = n
        if other[p - 1]:
            a = other[p - 1]
            m = ml = low[p - 1]
            nxt[prv[m]] = nxt[m]
            prv[nxt[m]] = prv[m]
        if other[p + 1]:
            b = other[p + 1]
            m = mr = low[p + 1]
            nxt[prv[m]] = nxt[m]
            prv[nxt[m]] = prv[m]
        other[a] = b
        other[b] = a
        low[a] = low[b] = i
        f = nxt[head]
        nxt[head] = i
        nxt[i] = f
        prv[f] = i
        if side is not None:
            m = ml if side[i] else mr
            if m < f:
                f = m
        if f <= bound[i]:
            bound[i] = f - 1


def mirror(X: list, n: int) -> list:
    """X read from the other end: position and value x become n-1-x.  It
    turns a left-end bound into a right-end one and back, so each sweep
    below is written once, for one side."""
    return [n - 1 - x for x in reversed(X)]


def exact_bounds(rows, n: int, opens=None) -> tuple:
    """Exact, not necessarily canonical, bounds (R0, L0) as lists: (i..j)
    is common to the identity and the permutations whose `positions`
    tuples are rows iff j <= R0[i] and L0[j] <= i.  With opens, one bool
    list per row true where 0-based label i has a + sign, the pairs
    admitted are the conserved ones: in every row labels i..j form one
    block, +i ... +j or -j ... -i."""
    if n <= 0:
        raise ValueError("empty permutation")
    if any(len(row) != n + 1 for row in rows):
        raise ValueError("position rows disagree with n")
    R0 = [n - 1] * n
    M = [n - 1] * n  # min Sup of complemented labels
    for row, side in zip(rows, opens or [None] * len(rows)):
        _sup(row[1:], side, R0)
        # Inf sweeps complemented labels, so the shut-out side flips
        _sup(row[:0:-1], side and list(map(not_, reversed(side))), M)
    return R0, mirror(M, n)


def _canonical_right(R0: list, L0: list, n: int) -> list:
    """R[i] = max{j <= R0[i] : L0[j] <= i}: sweep i down, killing right
    ends whose L0 threshold passes, in the order of one sort by L0."""
    order = sorted(range(n), key=L0.__getitem__)
    k = n
    par = list(range(n))
    R = [0] * n
    for i in range(n - 1, -1, -1):
        while k and L0[order[k - 1]] > i:
            k -= 1
            j = order[k]
            par[j] = j - 1
        R[i] = find_left(par, R0[i])
    return R


def canonicalize(R0: list, L0: list, n: int) -> tuple:
    """Canonical (R, L) from exact bounds: R[i] = max{j <= R0[i] : L0[j] <= i}
    and its mirror image L[j] = min{i >= L0[j] : R0[i] >= j}."""
    R = _canonical_right(R0, L0, n)
    return R, mirror(_canonical_right(mirror(L0, n), mirror(R0, n), n), n)


def canonical_generator(posmat, n: int) -> tuple:
    """Return (R, L) as lists, 0-based: R[i] = max j and L[j] = min i with
    (i..j) a common interval of the identity and the permutations in posmat.

    posmat holds the `positions` tuple of each non-identity permutation
    (1-based, index 0 padding), as `position_matrix` returns them.  Rows
    equal to the identity are harmless but wasted work; callers filter them
    out, which can leave posmat empty, hence the explicit n.
    """
    R0, L0 = exact_bounds(posmat, n)
    return canonicalize(R0, L0, n)


class _PositionRows(list):
    """A list of rows that can carry `shape` and `size`."""


def position_matrix(perms) -> _PositionRows:
    """The `positions` tuples of the non-identity permutations, as they
    are: 1-based, index 0 padding, not copied (no rows when all are the
    identity).  `.shape == (k, n)` and `.size == k * n` are read only by
    the benchmark's `kernels.generator_labels` and by
    `test_generator_is_canonical`; nothing in the package needs them."""
    n = perms[0].n
    identity = tuple(range(1, n + 1))
    rows = _PositionRows(perm.positions for perm in perms if perm.elements != identity)
    rows.shape, rows.size = (len(rows), n), len(rows) * n
    return rows


def find_left(par, x):
    """Largest live index <= x in a kill-to-the-left DSU, -1 if none.

    par[x] == x marks x live; killing x sets par[x] = x - 1.
    """
    root = x
    while root >= 0 and par[root] != root:
        root = par[root]
    while x >= 0 and par[x] != x:
        par[x], x = root, par[x]
    return root
