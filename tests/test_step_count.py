"""The step counter behind count_b_nested_common and count_b_nested_conserved:
closed nodes summed once per tree, open nodes counted step by step."""
from __future__ import annotations

import pytest

from bnest import core
from bnest.common_enum import (
    annotate,
    count_b_nested_common,
    enumerate_b_nested_common,
    qnode_count_parts,
)
from bnest.conserved_enum import (
    annotate_conserved,
    count_b_nested_conserved,
    enumerate_b_nested_conserved,
    node_count_parts,
)
from bnest.conserved_tree import build_conserved_tree
from bnest.pqtree import build_pqtree
from conftest import chain_raw

FAMILIES = {  # mode -> (normalize's signed flag, build, count, enumerate)
    "common": (None, build_pqtree, count_b_nested_common, enumerate_b_nested_common),
    "conserved": (True, build_conserved_tree, count_b_nested_conserved, enumerate_b_nested_conserved),
}


@pytest.mark.parametrize("mode", ["common", "conserved"])
def test_chain_count_equals_enumeration_at_every_b(mode):
    """A chain of 400 nested nodes has a node closing at nearly every b."""
    signed, build, count, enum = FAMILIES[mode]
    tree = build(core.normalize(chain_raw(mode, 400), signed=signed))
    for min_size in (1, 2):
        for b in range(1, tree.n + 2):
            assert count(tree, b, min_size) == sum(1 for _ in enum(tree, b, min_size)), (b, min_size)


@pytest.mark.parametrize("mode", ["common", "conserved"])
def test_huge_b_counts_like_b_above_n(mode, common_corpus, conserved_corpus):
    signed, build, count, _ = FAMILIES[mode]
    corpus = common_corpus if mode == "common" else conserved_corpus
    chain = core.normalize(chain_raw(mode, 400), signed=signed)
    for tree in map(build, [chain, *corpus]):
        for min_size in (1, 2):
            assert count(tree, 10**18, min_size) == count(tree, tree.n + 1, min_size)
    single = build(core.normalize([[1]], signed=signed))
    assert [count(single, b, ms) for ms in (1, 2) for b in (1, 2, 10**18)] == [1, 1, 1, 0, 0, 0]


def test_common_parts_sum_to_count(common_corpus):
    for pset in common_corpus:
        tree = build_pqtree(pset)
        annotate(tree)
        for b in range(1, tree.n + 2):
            total = sum(1 for nd in tree.nodes if nd.kind == "P" and b >= nd.bstar)
            for nd in tree.nodes:
                if nd.kind == "Q":
                    large_terms, run_terms = qnode_count_parts(nd, b)
                    total += sum(large_terms) + sum(run_terms)
            assert count_b_nested_common(tree, b, 2) == total, (pset.perms, b)
            assert count_b_nested_common(tree, b, 1) == total + tree.n, (pset.perms, b)


def test_conserved_parts_sum_to_count(conserved_corpus):
    for pset in conserved_corpus:
        tree = build_conserved_tree(pset)
        annotate_conserved(tree)
        for b in range(1, tree.n + 2):
            total = 0
            for nd in tree.nodes:
                gap_terms, run_terms = node_count_parts(nd, b)
                total += sum(gap_terms) + sum(run_terms)
            assert count_b_nested_conserved(tree, b, 2) == total, (pset.perms, b)
            assert count_b_nested_conserved(tree, b, 1) == total + tree.n, (pset.perms, b)
