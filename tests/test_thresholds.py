"""The per-node thresholds bstar against the brute-force oracle, and the
sweep path (one tree, one annotate pass, a count at every b)."""
from __future__ import annotations

from bnest import core, oracle
from bnest.common_enum import annotate, count_b_nested_common
from bnest.conserved_enum import annotate_conserved, count_b_nested_conserved
from bnest.conserved_tree import build_conserved_tree
from bnest.pqtree import build_pqtree
from conftest import weak_b_nested


def _levels(fam: set, n: int) -> list:
    """levels[b - 1] = the oracle's b-nested members, b = 1..n+1."""
    return [oracle.all_b_nested(fam, b) for b in range(1, n + 2)]


def _least_b(iv, levels) -> int:
    return next(b for b, nested in enumerate(levels, 1) if iv in nested)


def test_common_thresholds_match_oracle(common_corpus):
    for pset in common_corpus:
        tree = build_pqtree(pset)
        levels = _levels(oracle.all_common(pset), pset.n)
        annotate(tree)
        for nd in tree.nodes:
            assert nd.bstar == _least_b(nd.interval, levels), (pset.perms, nd.interval)
        for b, nested in enumerate(levels, 1):
            wide = sum(1 for iv in nested if iv.size() >= 2)
            assert count_b_nested_common(tree, b, 2) == wide, (pset.perms, b)


def test_conserved_thresholds_match_oracle(conserved_corpus):
    for pset in conserved_corpus:
        tree = build_conserved_tree(pset)
        levels = _levels(oracle.all_conserved(pset), pset.n)
        annotate_conserved(tree)
        for nd in tree.nodes:
            assert nd.bstar == _least_b(nd.interval, levels), (pset.perms, nd.interval)
        for b, nested in enumerate(levels, 1):
            wide = sum(1 for iv in nested if iv.size() >= 2)
            assert count_b_nested_conserved(tree, b, 2) == wide, (pset.perms, b)
            for nd in tree.nodes:  # every step threshold tau, through the pairs
                f = nd.frontiers
                for (i, j), ok in weak_b_nested(nd, b).items():
                    assert ok == (core.Interval(f[i], f[j]) in nested), (pset.perms, b)


def test_annotate_runs_once_per_tree(gold_common_pset, gold_conserved_pset):
    """A second pass would find the thresholds already set and skip."""
    for tree, ann in ((build_pqtree(gold_common_pset), annotate),
                      (build_conserved_tree(gold_conserved_pset), annotate_conserved)):
        assert not tree.annotated
        ann(tree)
        assert tree.annotated
        for nd in tree.nodes:
            nd.bstar = -1
        ann(tree)
        assert all(nd.bstar == -1 for nd in tree.nodes)
