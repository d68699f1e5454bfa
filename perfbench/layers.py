"""The traced layers of bnest and the per-layer metrics derived from them.

Each per-layer metric names the end-to-end metric and workloads it should
move; a change to one layer is expected to show there and nowhere else.
"""
from __future__ import annotations

from spans import Layer


def _generator_labels(span, args, kwargs, result):
    posmat = args[0]
    span.counts["labels"] = int(posmat.shape[0]) * int(posmat.shape[1]) if posmat.size else 0


def _pq_shape(span, args, kwargs, tree):
    depth = {id(tree.root): 0}
    best = 0
    for node in reversed(tree.nodes):  # post-order reversed: parents first
        d = depth[id(node)]
        best = max(best, d)
        for c in node.children:
            depth[id(c)] = d + 1
    span.counts.update(
        nodes=len(tree.nodes),
        q_nodes=sum(1 for nd in tree.nodes if nd.kind == "Q"),
        depth=best,
        max_fanout=max(len(nd.children) for nd in tree.nodes),
    )


def _conserved_shape(span, args, kwargs, tree):
    span.counts.update(nodes=len(tree.nodes),
                       frontiers=sum(len(nd.frontiers) for nd in tree.nodes))


def _emitted(span, args, kwargs, count):
    span.counts["output_intervals"] = count


TRACE_LAYERS = (
    Layer("cli.read", "bnest.cli", "_read_input"),
    Layer("cli.write", "bnest.cli", "_emit_intervals", after=_emitted),
    Layer("core.parse", "bnest.core", "parse_permutations"),
    Layer("core.normalize", "bnest.core", "normalize"),
    Layer("kernels.position_matrix", "bnest._kernels", "position_matrix"),
    Layer("kernels.generator", "bnest._kernels", "canonical_generator", after=_generator_labels),
    Layer("pqtree.strong_bounds", "bnest.pqtree", "_strong_bounds", where=("bnest.pqtree",)),
    Layer("pqtree.assembly", "bnest.pqtree", "build_pqtree", after=_pq_shape),
    Layer("conserved_tree.doubling", "bnest.conserved_tree", "_doubled_position_matrix"),
    Layer("conserved_tree.canonicalize", "bnest.conserved_tree", "_conserved_generator"),
    Layer("conserved_tree.strong_bounds", "bnest.conserved_tree", "_strong_bounds",
          where=("bnest.conserved_tree",)),
    Layer("conserved_tree.assembly", "bnest.conserved_tree", "build_conserved_tree",
          after=_conserved_shape),
    Layer("common_enum.annotate", "bnest.common_enum", "annotate"),
    Layer("common_enum.enumerate", "bnest.common_enum", "enumerate_b_nested_common"),
    Layer("common_enum.count", "bnest.common_enum", "count_b_nested_common"),
    Layer("conserved_enum.annotate", "bnest.conserved_enum", "annotate_conserved"),
    Layer("conserved_enum.enumerate", "bnest.conserved_enum", "enumerate_b_nested_conserved"),
    Layer("conserved_enum.count", "bnest.conserved_enum", "count_b_nested_conserved"),
)

# Per-layer metric -> (unit, how it is derived, the end-to-end metric and
# workloads it should move, or for trace.* what it is).
# Every value is per round of the request mix (one count, one enumerate and
# one sweep request), median over the traced rounds of a run.
#   ("self", span)          self time of that span, summed over the round
#   ("calls", span)         number of spans of that name in the round
#   ("sum", span, key)      sum of a count recorded on those spans
#   ("max", span, key)      largest such count (tree shape: same every build)
#   ("ratio", span)         scan_iters / (n + intervals written by enumerate)
PER_LAYER = {
    "core.parse_s": ("s", ("self", "core.parse"), "count_s on planted-common, once the generator is fast"),
    "core.normalize_s": ("s", ("self", "core.normalize"), "count_s on planted-common, once the generator is fast"),
    "kernels.position_matrix_s": ("s", ("self", "kernels.position_matrix"),
                                  "count_s, sweep_s on planted-common and inversions-conserved; not enumerate_s on dense-common"),
    "kernels.generator_s": ("s", ("self", "kernels.generator"),
                            "count_s, sweep_s on planted-common and inversions-conserved; not enumerate_s on dense-common"),
    "kernels.generator_labels": ("count", ("sum", "kernels.generator", "labels"),
                                 "count_s, sweep_s on planted-common and inversions-conserved"),
    "pqtree.strong_bounds_s": ("s", ("self", "pqtree.strong_bounds"), "count_s, peak_rss_mb on planted-common"),
    "pqtree.assembly_s": ("s", ("self", "pqtree.assembly"), "count_s, peak_rss_mb on planted-common"),
    "pqtree.nodes": ("count", ("max", "pqtree.assembly", "nodes"), "count_s, peak_rss_mb on planted-common"),
    "pqtree.q_nodes": ("count", ("max", "pqtree.assembly", "q_nodes"), "count_s, peak_rss_mb on planted-common"),
    "pqtree.depth": ("count", ("max", "pqtree.assembly", "depth"), "count_s, peak_rss_mb on planted-common"),
    "pqtree.max_fanout": ("count", ("max", "pqtree.assembly", "max_fanout"), "count_s, peak_rss_mb on planted-common"),
    "conserved_tree.doubling_s": ("s", ("self", "conserved_tree.doubling"), "count_s on inversions-conserved only"),
    "conserved_tree.canonicalize_s": ("s", ("self", "conserved_tree.canonicalize"), "count_s on inversions-conserved only"),
    "conserved_tree.strong_bounds_s": ("s", ("self", "conserved_tree.strong_bounds"), "count_s on inversions-conserved only"),
    "conserved_tree.assembly_s": ("s", ("self", "conserved_tree.assembly"), "count_s on inversions-conserved only"),
    "conserved_tree.nodes": ("count", ("max", "conserved_tree.assembly", "nodes"), "count_s on inversions-conserved only"),
    "conserved_tree.frontiers": ("count", ("max", "conserved_tree.assembly", "frontiers"), "count_s on inversions-conserved only"),
    "common_enum.annotate_s": ("s", ("self", "common_enum.annotate"), "sweep_s on dense-common"),
    "common_enum.annotate_calls": ("count", ("calls", "common_enum.annotate"), "sweep_s on dense-common"),
    "common_enum.enumerate_s": ("s", ("self", "common_enum.enumerate"), "enumerate_s, sweep_s on dense-common"),
    "common_enum.count_s": ("s", ("self", "common_enum.count"), "enumerate_s, sweep_s on dense-common"),
    "common_enum.scan_iters": ("count", ("sum", "common_enum.enumerate", "scan_iters"), "enumerate_s, sweep_s on dense-common"),
    "common_enum.scan_ratio": ("ratio", ("ratio", "common_enum.enumerate"), "enumerate_s, sweep_s on dense-common"),
    "conserved_enum.annotate_s": ("s", ("self", "conserved_enum.annotate"), "enumerate_s, sweep_s on inversions-conserved"),
    "conserved_enum.annotate_calls": ("count", ("calls", "conserved_enum.annotate"), "sweep_s on inversions-conserved"),
    "conserved_enum.enumerate_s": ("s", ("self", "conserved_enum.enumerate"), "enumerate_s, sweep_s on inversions-conserved"),
    "conserved_enum.count_s": ("s", ("self", "conserved_enum.count"), "enumerate_s, sweep_s on inversions-conserved"),
    "conserved_enum.scan_iters": ("count", ("sum", "conserved_enum.enumerate", "scan_iters"), "enumerate_s, sweep_s on inversions-conserved"),
    "conserved_enum.scan_ratio": ("ratio", ("ratio", "conserved_enum.enumerate"), "enumerate_s, sweep_s on inversions-conserved"),
    "cli.read_s": ("s", ("self", "cli.read"), "enumerate_s on dense-common"),
    "cli.write_s": ("s", ("self", "cli.write"), "enumerate_s on dense-common"),
    "cli.output_intervals": ("count", ("sum", "cli.write", "output_intervals"), "enumerate_s on dense-common"),
    "trace.round_s": ("s", ("round",), "wall time of one traced round of the request mix"),
    "trace.overhead_s": ("s", ("overhead",), "traced round time minus untraced round time"),
}
