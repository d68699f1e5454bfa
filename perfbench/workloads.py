"""Seeded instance generators for the three benchmark workloads.

The models live here, not in bnest, so that changes to the program cannot
change what the benchmark measures.  Every instance is relabelled through a
random bijection before it is written, so the first permutation is not the
identity and `--original-labels` has real work to do.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "common" or "conserved"
    b0: int
    why: str
    make: object  # (rng, small) -> list of K signed label lists


def planted_common(rng: random.Random, n: int = 2000, K: int = 4,
                   depth: int = 6, span: int = 8) -> list:
    """Nested value blocks of sizes span, span-1, ... kept contiguous in every
    permutation, everything else shuffled: a nearly flat tree whose cost is
    the build.  The same model as acceptance criterion 8."""
    outer = min(max(span, depth + 1), n - 1)
    sizes = [outer - t for t in range(depth) if outer - t >= 2]
    lo = rng.randint(1, n - sizes[0] + 1)
    blocks = []
    for s in sizes:
        blocks.append((lo, lo + s - 1))
        if s > 2:
            lo += rng.randint(0, 1)
    perms = [list(range(1, n + 1))]
    for _ in range(K - 1):
        perms.append(_shuffle_nested(n, blocks, rng))
    return perms


def _shuffle_nested(n: int, blocks: list, rng: random.Random) -> list:
    # Innermost first: each level shuffles its free labels together with the
    # already-arranged inner block, which moves as one unit.
    inner = []
    for level in range(len(blocks), -1, -1):
        blo, bhi = blocks[level - 1] if level else (1, n)
        ilo, ihi = blocks[level] if level < len(blocks) else (0, -1)
        units = [[v] for v in range(blo, bhi + 1) if not ilo <= v <= ihi]
        if inner:
            units.append(inner)
        rng.shuffle(units)
        inner = [v for u in units for v in u]
    return inner


def dense_common(rng: random.Random, pairs: int = 100, triples: int = 235,
                 singles: int = 265) -> list:
    """Identity and the identity with disjoint adjacent swaps and reversed
    triples at random places: a root Q-node whose children are all b-small
    for b >= 3, so the output is large and the query layers do the work.

    The block counts are fixed, not drawn: with overlapping random swaps the
    output size swung from 3.2e5 to 8.5e5 across seeds, and the time with it.
    Here it is C(m, 2) + pairs + 3 * triples for m blocks, whatever the seed.
    """
    sizes = [1] * singles + [2] * pairs + [3] * triples
    rng.shuffle(sizes)
    second = []
    for s in sizes:
        second.extend(range(len(second) + s, len(second), -1))
    return [list(range(1, len(second) + 1)), second]


def inversions_conserved(rng: random.Random, n: int = 1500, K: int = 3,
                         inversions: int = 110, max_len: int = 6) -> list:
    """Framed signed permutations (+1 ... +n), each the identity after signed
    inversions of length <= max_len on the interior positions."""
    perms = [list(range(1, n + 1))]
    for _ in range(K - 1):
        perm = list(range(1, n + 1))
        for _ in range(inversions):
            length = rng.randint(1, min(max_len, n - 2))
            a = rng.randint(1, n - 1 - length)  # 0-based start, frame kept
            perm[a:a + length] = [-v for v in reversed(perm[a:a + length])]
        perms.append(perm)
    return perms


def relabel(perms: list, rng: random.Random) -> list:
    """Apply one random label bijection to every permutation, signs kept."""
    n = len(perms[0])
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return [[labels[abs(x) - 1] * (1 if x > 0 else -1) for x in perm] for perm in perms]


def write_instance(perms: list, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for perm in perms:
            fh.write(" ".join(map(str, perm)))
            fh.write("\n")


def _planted(rng, small):
    return planted_common(rng, n=rng.randint(9, 12)) if small else planted_common(rng)


def _dense(rng, small):
    return dense_common(rng, pairs=2, triples=1, singles=rng.randint(1, 5)) if small else dense_common(rng)


def _inversions(rng, small):
    if small:
        return inversions_conserved(rng, n=rng.randint(6, 12), inversions=2, max_len=4)
    return inversions_conserved(rng)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("planted-common", "common", 2,
                 "unsigned K=4 n=2000 planted blocks: a nearly flat tree with ~10 outputs, "
                 "so the build (generator) does the work; bypass for query-side changes",
                 _planted),
        Workload("dense-common", "common", 3,
                 "unsigned K=2 n=1170 near-identity: a 600-child root Q-node with 1.8e5 outputs, "
                 "so annotate, enumerate and write do the work; bypass for build-side changes",
                 _dense),
        Workload("inversions-conserved", "conserved", 2,
                 "framed signed K=3 n=1500 with short signed inversions: the only workload "
                 "that runs the conserved tree and enumerator",
                 _inversions),
    )
}


def instance(workload: Workload, seed: int, small: bool = False, index: int = 0) -> list:
    """The relabelled instance of a workload for a seed; `small` gives the
    n <= 12 variants checked against the brute-force oracle."""
    rng = random.Random(f"bnest-bench:{workload.name}:{seed}:{'small' if small else 'full'}:{index}")
    return relabel(workload.make(rng, small), rng)
