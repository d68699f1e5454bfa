"""Strong common intervals, inclusion tree, P/Q labels, weak regeneration."""
from __future__ import annotations

import random
import tracemalloc

import pytest

import bnest
from bnest import conserved_tree, core, oracle, pqtree
from bnest._kernels import canonical_generator, canonicalize, exact_bounds, mirror, position_matrix
from bnest.common_enum import count_b_nested_common
from bnest.conserved_tree import _conserved_generator
from bnest.pqtree import (
    InternalStructureError,
    PQTree,
    _assemble,
    _strong_bounds,
    build_pqtree,
)
from conftest import (
    canonical_bounds,
    chain_raw,
    child_intervals,
    generator_family,
    ivset,
    planted_raw,
    random_framed_raw,
    random_unsigned_raw,
    singletons,
    weak_intervals_of_qnode,
)

GOLD_TREE_TEXT = """\
P (1..9)
  Q (1..4)
    L (1..1)
    Q (2..3)
      L (2..2)
      L (3..3)
    L (4..4)
  Q (5..6)
    L (5..5)
    L (6..6)
  Q (7..9)
    L (7..7)
    L (8..8)
    L (9..9)"""


def _walk(node):
    yield node
    for c in node.children:
        yield from _walk(c)


def test_golden_tree_shape(gold_common_pset):
    tree = build_pqtree(gold_common_pset)
    assert tree.to_text() == GOLD_TREE_TEXT
    root = tree.root
    assert root.kind == "P" and root.interval == core.Interval(1, 9)
    assert [c.interval for c in root.children] == [
        core.Interval(1, 4), core.Interval(5, 6), core.Interval(7, 9)]
    assert [c.kind for c in root.children] == ["Q", "Q", "Q"]


def _expanded(tree) -> set:
    """Every interval of the tree, leaves included."""
    return {iv for nd in tree.nodes for iv in (nd.interval, *child_intervals(nd))}


def test_golden_strong_set(gold_common_pset):
    tree = build_pqtree(gold_common_pset)
    strong = ivset({(2, 3), (1, 4), (5, 6), (7, 9), (1, 9)})
    assert {nd.interval for nd in tree.nodes} == strong
    assert _expanded(tree) == strong | singletons(9)


def test_two_permutation_strong_set():
    tree = build_pqtree(core.normalize([[1, 2, 3], [3, 1, 2]]))
    assert {nd.interval for nd in tree.nodes} == ivset({(1, 2), (1, 3)})
    assert _expanded(tree) == ivset({(1, 2), (1, 3)}) | singletons(3)


def test_identity_tree_is_single_q():
    for n in (2, 3, 7):
        tree = build_pqtree(core.normalize([list(range(1, n + 1))]))
        assert tree.root.kind == "Q" and tree.nodes == [tree.root]
        assert child_intervals(tree.root) == sorted(singletons(n))
        assert tree.root.ends == list(range(n + 1))
        assert count_b_nested_common(tree, n, 1) == n * (n + 1) // 2


def test_reversal_tree_is_single_q():
    n = 6
    tree = build_pqtree(core.normalize(
        [list(range(1, n + 1)), list(range(n, 0, -1))]))
    assert tree.root.kind == "Q" and len(child_intervals(tree.root)) == n


def test_single_element_tree():
    tree = build_pqtree(core.normalize([[1]]))
    assert tree.nodes == [tree.root] and tree.root.kind == "LEAF"
    assert tree.root.interval == core.Interval(1, 1) and child_intervals(tree.root) == []
    assert count_b_nested_common(tree, 1, 1) == 1


def test_planted_1e5_tree_keeps_only_its_strong_intervals(monkeypatch):
    """No object per leaf at n = 1e5: the nodes are exactly the strong
    intervals of size >= 2, read off the canonical generator, and the tree
    holds at most 2 MiB.  tracemalloc starts as assembly begins, so it sees
    what the nodes allocate and none of the earlier layers' inputs."""
    n = 10**5
    pset = core.normalize(planted_raw(n, 4, 6, 8, random.Random(10_000 + n)))
    assemble = pqtree._assemble

    def traced(*args):
        tracemalloc.start()
        return assemble(*args)

    monkeypatch.setattr(pqtree, "_assemble", traced)
    try:
        tree = build_pqtree(pset)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 2 * 2**20, held
    R, L = canonical_generator(position_matrix(pset.perms), n)
    wide = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, R[i] + 1) if L[j] <= i]
    strong = [(lo, hi) for lo, hi in wide
              if not any(a < lo <= b < hi or lo < a <= hi < b for a, b in wide)]
    assert sorted((nd.lo, nd.hi) for nd in tree.nodes) == sorted(strong)


def test_is_common_matches_oracle(gold_common_pset):
    """The generator admits exactly the common intervals."""
    fam = oracle.all_common(gold_common_pset)
    R, L = canonical_generator(position_matrix(gold_common_pset.perms), 9)
    assert generator_family(R, L, 9) == fam


def test_weak_intervals_of_qnode_contract(gold_common_pset):
    tree = build_pqtree(gold_common_pset)
    root = tree.root
    with pytest.raises(ValueError):
        weak_intervals_of_qnode(root)  # P node
    q14 = root.children[0]
    assert weak_intervals_of_qnode(q14) == [
        core.Interval(1, 3), core.Interval(2, 4)]
    assert weak_intervals_of_qnode(q14, include_full=True) == [
        core.Interval(1, 3), core.Interval(1, 4), core.Interval(2, 4)]


def _assert_tree_invariants(pset, tree: PQTree, fam: set):
    nodes = list(_walk(tree.root))
    # the stored nodes are the internal ones, each reached once from the root
    assert sorted(map(id, nodes)) == sorted(map(id, tree.nodes))
    assert all(nd.size >= 2 and nd.kind in ("P", "Q") for nd in nodes) or tree.n == 1
    leaves = [iv for nd in nodes for iv in child_intervals(nd) if iv.size() == 1]
    ivs = [nd.interval for nd in nodes] + leaves
    # inclusion tree of exactly the strong intervals, each once
    assert len(set(ivs)) == len(ivs) <= 2 * tree.n - 1
    assert set(ivs) == oracle.strong_of(fam) | {iv for iv in fam if iv.size() == 1}
    # laminarity and child partition
    for nd in nodes:
        if nd.kind == "LEAF":
            assert nd.interval.size() == 1 and not nd.children
            continue
        kids = child_intervals(nd)
        assert len(kids) >= 2
        pos = nd.interval.lo
        for c in kids:
            assert c.lo == pos
            pos = c.hi + 1
        assert pos == nd.interval.hi + 1
        # a Q-node's stored step ends, and its internal children's step indices
        if nd.kind == "Q":
            assert nd.ends == [nd.lo - 1] + [c.hi for c in kids]
            assert all(kids[c.parent_step] == c.interval for c in nd.children)
        else:
            assert nd.ends is None
    # every family member is a node or a run of successive Q children,
    # and everything either form generates is a family member
    regenerated = set(ivs)
    for nd in nodes:
        if nd.kind != "Q":
            continue
        kids = child_intervals(nd)
        for a in range(len(kids)):
            for d in range(a + 1, len(kids)):
                regenerated.add(core.Interval(kids[a].lo, kids[d].hi))
    assert regenerated == fam
    assert count_b_nested_common(tree, tree.n, 1) == len(fam)
    # P label minimality: no proper run of >= 2 successive children is common
    for nd in nodes:
        kids = child_intervals(nd)
        for a in range(len(kids)):
            for d in range(a + 1, len(kids)):
                if d - a + 1 == len(kids):
                    continue
                run = core.Interval(kids[a].lo, kids[d].hi)
                assert (run in fam) == (nd.kind == "Q")


def test_random_instances_match_oracle():
    rng = random.Random(101)
    for _ in range(120):
        n = rng.randint(1, 11)
        pset = core.normalize(random_unsigned_raw(rng, n, rng.randint(1, 5)))
        tree = build_pqtree(pset)
        _assert_tree_invariants(pset, tree, oracle.all_common(pset))


def test_common_membership_random():
    rng = random.Random(202)
    for _ in range(60):
        n = rng.randint(1, 10)
        pset = core.normalize(random_unsigned_raw(rng, n, rng.randint(1, 4)))
        R, L = canonical_generator(position_matrix(pset.perms), n)
        assert generator_family(R, L, n) == oracle.all_common(pset)


def test_generator_is_canonical():
    rng = random.Random(303)
    for t in range(48):
        n = 1 if t < 2 else rng.randint(2, 64)
        K = 1 if t % 8 == 0 else rng.randint(2, 5)
        pset = core.normalize(random_unsigned_raw(rng, n, K))
        posmat = position_matrix(pset.perms)
        if K == 1:
            assert posmat.shape[0] == 0
        assert canonical_generator(posmat, n) == canonical_bounds(oracle.all_common(pset), n)


def test_assemble_rejects_pairs_that_never_close():
    # Every position is its own strong pair: three leaves and no root.
    def make(i, j, kids):
        raise AssertionError("no pair (i, j) with i < j is strong here")

    with pytest.raises(InternalStructureError):
        _assemble([0, 1, 2], [0, 1, 2], 3, make)
    assert bnest.InternalStructureError is InternalStructureError
    assert conserved_tree.InternalStructureError is InternalStructureError


def test_canonicalize_matches_its_definition():
    """The canonical generator from real exact bounds of both families
    against its formulas: R[i] = max{j <= R0[i] : L0[j] <= i} and
    L[j] = min{i >= L0[j] : R0[i] >= j}."""
    rng = random.Random(606)
    for t in range(240):
        n = rng.randint(1, 40)
        K = rng.randint(1, 4)
        if t % 2 and n >= 2:
            pset = core.normalize(random_framed_raw(rng, n, K), signed=True)
            rows, opens = conserved_tree._doubled_position_matrix(pset)
            R0, L0 = exact_bounds(rows, n, opens)
        else:
            pset = core.normalize(random_unsigned_raw(rng, n, K))
            R0, L0 = exact_bounds(position_matrix(pset.perms), n)
        R = [max(j for j in range(i, R0[i] + 1) if L0[j] <= i) for i in range(n)]
        L = [min(i for i in range(L0[j], j + 1) if R0[i] >= j) for j in range(n)]
        assert canonicalize(R0, L0, n) == (R, L)


def test_mirror_is_an_involution():
    rng = random.Random(404)
    for n in (1, 2, 5, 40):
        X = [rng.randrange(n) for _ in range(n)]
        assert mirror(X, n) == [n - 1 - X[n - 1 - k] for k in range(n)]
        assert mirror(mirror(X, n), n) == X


def test_strong_bounds_match_their_definition():
    """lo and hi, both from one upward sweep over right ends (a stack of
    open arcs for lo, one of unsettled left ends for hi), against the
    formulas of the pqtree docstring, on canonical generators of both
    families: random sets, every set with n = 1 or 2, and deep nested
    chains."""
    rng = random.Random(505)
    cases = []
    for t in range(80):
        n = rng.randint(2, 40)
        if t % 2:
            cases.append(core.normalize(random_framed_raw(rng, n, rng.randint(2, 4)), signed=True))
        else:
            cases.append(core.normalize(random_unsigned_raw(rng, n, rng.randint(2, 4))))
    cases += [core.normalize([[1], [1]]), core.normalize([[1], [1]], signed=True),
              core.normalize([[1, 2], [1, 2]]), core.normalize([[1, 2], [2, 1]]),
              core.normalize([[1, 2], [1, 2]], signed=True)]
    for depth in (1, 2, 3, 150):
        cases.append(core.normalize(chain_raw("common", depth)))
        cases.append(core.normalize(chain_raw("conserved", depth), signed=True))
    for pset in cases:
        n = pset.n
        if pset.signed:
            R, L = _conserved_generator(pset)
        else:
            R, L = canonical_generator(position_matrix(pset.perms), n)
        lo = [max([L[j]] + [i for i in range(j + 1) if R[i] > j]) for j in range(n)]
        hi = [min([R[i]] + [j for j in range(i, n) if L[j] < i]) for i in range(n)]
        assert _strong_bounds(R, L, n) == (lo, hi)
