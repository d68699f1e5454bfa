"""Primitives: intervals, normalization, frame validation, text format."""
from __future__ import annotations

import copy
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnest import build_pqtree, core, enumerate_b_nested_common
from conftest import (
    GOLD_COMMON_RAW,
    GOLD_COMMON_WIDE,
    GOLD_CONSERVED_RAW,
    GOLD_CONSERVED_WIDE,
    ivset,
    random_framed_raw,
    random_unsigned_raw,
)


def test_interval_basics():
    iv = core.Interval(2, 5)
    assert iv.size() == 4
    assert str(iv) == "(2..5)"
    assert iv.contains(core.Interval(2, 5))
    assert not iv.strictly_contains(core.Interval(2, 5))
    assert iv.strictly_contains(core.Interval(3, 4))
    assert iv.overlaps(core.Interval(4, 7))
    assert iv.overlaps(core.Interval(5, 7))  # one shared element still overlaps
    assert not iv.overlaps(core.Interval(6, 7))  # disjoint
    assert not iv.overlaps(core.Interval(3, 4))  # nested is not overlap


def test_interval_rejects_empty():
    with pytest.raises(ValueError):
        core.Interval(5, 4)


def test_interval_ordering_is_lexicographic():
    ivs = [core.Interval(2, 3), core.Interval(1, 9), core.Interval(1, 4)]
    assert sorted(ivs) == [core.Interval(1, 4), core.Interval(1, 9), core.Interval(2, 3)]


def test_interval_is_an_immutable_pair():
    iv = core.Interval(2, 5)
    assert iv == (2, 5) and hash(iv) == hash((2, 5))
    assert (iv.lo, iv.hi) == tuple(iv)
    assert {iv: 1}[(2, 5)] == 1
    assert str(iv) == "(2..5)"
    assert repr(iv) == "Interval(lo=2, hi=5)"
    with pytest.raises(AttributeError):
        iv.lo = 3
    rng = random.Random(12)
    pairs = [tuple(sorted((rng.randint(1, 9), rng.randint(1, 9)))) for _ in range(50)]
    assert [tuple(iv) for iv in sorted(core.Interval(*p) for p in pairs)] == sorted(pairs)


def test_value_types_compare_by_value_and_refuse_assignment():
    """Permutation, SignedPermutation and PermutationSet are immutable
    values: two normalizations of one input are equal, keyword construction
    rebuilds an equal value, and no field (or new attribute) can be set."""
    for raw, signed in ((GOLD_COMMON_RAW, None), (GOLD_CONSERVED_RAW, True)):
        a, b = core.normalize(raw, signed), core.normalize(raw, signed)
        assert a == b and a is not b and a.perms[1] == b.perms[1]
        assert copy.deepcopy(a) == a == pickle.loads(pickle.dumps(a))
        assert core.PermutationSet(perms=a.perms, n=a.n, K=a.K, signed=a.signed,
                                   relabeling=a.relabeling, original_of=a.original_of) == a
        perm_fields = ["elements", "positions"] + (["signs"] if signed else [])
        targets = [(a, ["perms", "n", "K", "signed", "relabeling", "original_of"])]
        targets += [(perm, perm_fields) for perm in a.perms]
        for obj, names in targets:
            for name in names + ["extra"]:
                with pytest.raises(AttributeError):
                    setattr(obj, name, getattr(obj, name, None))
    assert core.normalize(GOLD_COMMON_RAW) != core.normalize(GOLD_COMMON_RAW, signed=True)
    perm = core.Permutation(elements=(2, 3, 1), positions=(0, 3, 1, 2))
    assert perm == core.normalize([[1, 2, 3], [2, 3, 1]]).perms[1] and perm.n == 3
    sperm = core.SignedPermutation(elements=(2, 1), signs=(-1, 1), positions=(0, 2, 1))
    assert sperm == core.normalize([[1, 2], [-2, 1]]).perms[1]
    assert sperm.signed_elements() == (-2, 1) and sperm != perm


def test_import_loads_no_unused_stdlib_modules():
    """`import bnest` loads only bisect, itertools and operator from the
    standard library, and the CLI loads none of dataclasses, inspect, ast,
    dis, tokenize, json, typing or random.  -S keeps site's own imports out."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    loaded = {}
    for module in ("bnest", "bnest.cli"):
        code = f"import sys; b = set(sys.modules); import {module}; print(*set(sys.modules) - b)"
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
        loaded[module] = set(proc.stdout.split())
        assert module in loaded[module]
    unused = {"dataclasses", "inspect", "ast", "dis", "tokenize", "json", "typing", "random"}
    assert not loaded["bnest.cli"] & unused
    stdlib = {m for m in loaded["bnest"] if not m.startswith(("_", "bnest"))}
    assert stdlib == {"bisect", "itertools", "operator"}


def test_normalize_first_becomes_identity():
    pset = core.normalize([[3, 1, 2], [2, 3, 1]])
    assert list(pset.perms[0].elements) == [1, 2, 3]
    assert pset.n == 3 and pset.K == 2 and not pset.signed


def test_normalize_relabel_round_trip():
    raw = [[3, 1, 4, 2, 5], [3, 4, 1, 2, 5]]
    pset = core.normalize(raw)
    # renumbered label r came from original label original_of[r]
    originals = [pset.original_of[r] for r in range(1, 6)]
    assert sorted(originals) == [1, 2, 3, 4, 5]
    assert originals == [3, 1, 4, 2, 5]


def test_normalize_identical_copies_match_identity():
    # K copies of one permutation carry exactly the identity's intervals
    pset = core.normalize([[4, 1, 3, 2]] * 3)
    for perm in pset.perms:
        assert list(perm.elements) == [1, 2, 3, 4]


def test_normalize_sign_autodetect():
    assert not core.normalize([[1, 2], [2, 1]]).signed
    assert core.normalize([[1, 2], [-2, -1]]).signed
    assert core.normalize([[1, 2], [2, 1]], signed=True).signed


def test_normalize_rejects_bad_input():
    with pytest.raises(core.PermutationError):
        core.normalize([])
    with pytest.raises(core.LengthMismatch):
        core.normalize([[1, 2, 3], [2, 1]])
    with pytest.raises(core.DuplicateElement):
        core.normalize([[1, 2, 2]])
    with pytest.raises(core.NotAPermutation):
        core.normalize([[1, 2, 3], [1, 2, 4]])
    with pytest.raises(core.NotAPermutation):
        core.normalize([[0, 1]])


@pytest.mark.parametrize("raw, error, message", [
    # Rows are checked for duplicates one by one before any label set is
    # compared, so row 2's duplicate wins over row 1's foreign label.
    ([[1, 2, 3], [1, 2, 4], [3, 1, 3]], core.DuplicateElement,
     "permutation 2: duplicate label: 3"),
    ([[1, 2, 3], [2, -2, 0]], core.DuplicateElement, "permutation 1: duplicate label: 2"),
    ([[1, 2, 3], [0, 2, 2]], core.NotAPermutation,
     "permutation 1: label 0 cannot carry a sign: 0"),
])
def test_normalize_names_the_first_bad_label(raw, error, message):
    with pytest.raises(error) as info:
        core.normalize(raw)
    assert type(info.value) is error and str(info.value) == message


def _normalize_checking_first(raw, signed=None):
    """normalize with `_check_raw` run before the relabel pass, as it once
    was: the reference for which error an invalid input gets."""
    n = core._check_raw(raw)
    if signed is None:
        signed = min(map(min, raw)) < 0
    first = [abs(x) for x in raw[0]]
    relabeling = dict(zip(first, range(1, n + 1)))
    sign_in_first = {abs(x): -1 if x < 0 else 1 for x in raw[0]}
    perms = []
    for seq in raw:
        elems = tuple(relabeling[abs(x)] for x in seq)
        pos = [0] * (n + 1)
        for p, v in enumerate(elems, start=1):
            pos[v] = p
        if signed:
            signs = tuple((-1 if x < 0 else 1) * sign_in_first[abs(x)] for x in seq)
            perms.append(core.SignedPermutation(elems, signs, tuple(pos)))
        else:
            perms.append(core.Permutation(elems, tuple(pos)))
    return core.PermutationSet(tuple(perms), n, len(perms), signed, relabeling, (0, *first))


def _random_raw(rng: random.Random) -> list:
    """A small valid input, then none, one or two faults: a row too short
    or too long, a 0, a duplicate in row 0 or in a later row, a foreign
    label, no rows or an empty row.  Labels may be any set, 10**12 too."""
    n = rng.randint(1, 7)
    labels = rng.sample(range(1, 12), n) if rng.random() < 0.5 else list(range(1, n + 1))
    if rng.random() < 0.15:
        labels[rng.randrange(n)] = 10**12
    raw = []
    for _ in range(rng.randint(1, 4)):
        row = rng.sample(labels, n)
        raw.append([x if rng.random() < 0.6 else -x for x in row] if rng.random() < 0.5 else row)
    for _ in range(rng.choice((0, 0, 1, 2))):
        if not raw:
            break
        fault = rng.choice(("short", "long", "zero", "dup0", "dupk", "foreign", "empty"))
        row = raw[{"dup0": 0, "dupk": -1}.get(fault, rng.randrange(len(raw)))]
        if fault == "short" and row:
            row.pop(rng.randrange(len(row)))
        elif fault == "long":
            row.insert(rng.randint(0, len(row)), rng.choice(row or [1]))
        elif fault == "zero" and row:
            row[rng.randrange(len(row))] = 0
        elif fault in ("dup0", "dupk") and len(row) > 1:
            row[rng.randrange(len(row))] = rng.choice(row) * rng.choice((1, -1))
        elif fault == "foreign" and row:
            row[rng.randrange(len(row))] = rng.choice((12, -12, 10**12, -10**12))
        elif fault == "empty":
            if rng.random() < 0.3:
                raw.clear()
            else:
                row.clear()
    return raw


def test_normalize_matches_checking_first():
    """normalize checks inside its relabel pass; on 4,000 seeded inputs,
    valid or not, it gives the same PermutationSet, or the same error class
    and message, as the reference that runs `_check_raw` first."""
    def outcome(f, raw, signed):
        try:
            return f([row[:] for row in raw], signed)
        except core.PermutationError as exc:
            return type(exc), str(exc)

    rng = random.Random(2026)
    seen = {}
    for _ in range(4000):
        raw, signed = _random_raw(rng), rng.choice((None, True, False))
        want = outcome(_normalize_checking_first, raw, signed)
        got = outcome(core.normalize, raw, signed)
        assert type(got) is type(want) and got == want, (raw, signed)
        kind = want[0].__name__ if type(want) is tuple else "valid"
        seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == {"valid", "PermutationError", "LengthMismatch", "NotAPermutation",
                         "DuplicateElement"}
    assert min(seen.values()) >= 200, seen


def test_is_common_interval_golden():
    pset = core.normalize(GOLD_COMMON_RAW)
    wide = ivset(GOLD_COMMON_WIDE)
    for lo in range(1, 10):
        for hi in range(lo, 10):
            iv = core.Interval(lo, hi)
            expect = lo == hi or iv in wide
            assert core.is_common_interval(pset, iv) == expect


def test_is_conserved_interval_golden():
    pset = core.normalize(GOLD_CONSERVED_RAW, signed=True)
    wide = ivset(GOLD_CONSERVED_WIDE)
    for lo in range(1, 10):
        for hi in range(lo, 10):
            iv = core.Interval(lo, hi)
            expect = lo == hi or iv in wide
            assert core.is_conserved_interval(pset, iv) == expect


def test_membership_accepts_plain_pairs():
    """Enumerated (lo, hi) pairs can be passed back into the membership
    tests, with the same verdict as the Interval."""
    for raw, test, signed in ((GOLD_COMMON_RAW, core.is_common_interval, None),
                              (GOLD_CONSERVED_RAW, core.is_conserved_interval, True)):
        pset = core.normalize(raw, signed=signed)
        for lo in range(1, 10):
            for hi in range(lo, 10):
                assert test(pset, (lo, hi)) == test(pset, core.Interval(lo, hi))
    pset = core.normalize(GOLD_COMMON_RAW)
    pairs = list(enumerate_b_nested_common(build_pqtree(pset), 5, 1))
    assert pairs and all(core.is_common_interval(pset, p) for p in pairs)
    with pytest.raises(ValueError):
        core.is_common_interval(pset, (5, 3))
    with pytest.raises(ValueError):
        core.is_common_interval(pset, (0, 10))


def test_membership_rejects_out_of_range_units():
    """Both membership tests raise on an empty or out-of-range interval,
    units included, while in-range units stay members."""
    pset = core.normalize([[1, 2, 3, 4, 5], [1, -3, -2, 4, 5]], signed=True)
    for test in (core.is_common_interval, core.is_conserved_interval):
        assert all(test(pset, (v, v)) for v in range(1, 6))
        for iv in ((99, 99), (0, 0), (6, 6), (4, 2), (0, 5)):
            with pytest.raises(ValueError):
                test(pset, iv)


def test_conserved_requires_signs():
    pset = core.normalize([[1, 2, 3], [1, 3, 2]])
    with pytest.raises(core.PermutationError):
        core.validate_conserved_frame(pset)
    with pytest.raises(core.PermutationError):
        core.is_conserved_interval(pset, core.Interval(1, 2))


def test_frame_validation():
    ok = core.normalize([[1, 2, 3, 4], [1, -3, -2, 4]], signed=True)
    assert core.validate_conserved_frame(ok) is ok
    broken = core.normalize([[1, 2, 3], [3, 1, 2]], signed=True)
    with pytest.raises(core.BadFrame):
        core.validate_conserved_frame(broken)


def test_apply_frame_wraps_with_sentinels():
    pset = core.normalize([[1, 2, 3], [3, 1, 2]], signed=True)
    framed = core.apply_frame(pset)
    assert framed.n == pset.n + 2
    for perm in framed.perms:
        els = perm.signed_elements()
        assert els[0] == 1 and els[-1] == framed.n
    # the wrapped set always passes the frame check
    assert core.validate_conserved_frame(framed) is framed


def _signed_text(pset) -> str:
    """A signed set written back as input text, one permutation per line."""
    return "".join(" ".join(map(str, perm.signed_elements())) + "\n" for perm in pset.perms)


def test_parse_permutations_format():
    text = "# a comment\n1 2 3\n\n1 -3 -2\n"
    raw = core.parse_permutations(text)
    assert raw == [[1, 2, 3], [1, -3, -2]]
    pset = core.normalize(raw, signed=True)
    assert core.parse_permutations(_signed_text(pset)) == [
        [1, 2, 3], [1, -3, -2]]


def test_parse_reports_line_numbers():
    with pytest.raises(core.PermutationError) as err:
        core.parse_permutations("1 2\n1 x\n")
    assert "line 2" in str(err.value)


@given(st.integers(1, 30), st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_positions_invert_elements(n, K, seed):
    """positions[elements[p]] == p (1-based) for every permutation after normalize."""
    raw = random_unsigned_raw(random.Random(seed), n, K)
    pset = core.normalize(raw)
    for perm in pset.perms:
        for p, v in enumerate(perm.elements, start=1):
            assert perm.positions[v] == p


@given(st.integers(2, 20), st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_framed_round_trip_through_text(n, K, seed):
    raw = random_framed_raw(random.Random(seed), n, K)
    pset = core.normalize(raw, signed=True)
    core.validate_conserved_frame(pset)
    again = core.normalize(
        core.parse_permutations(_signed_text(pset)), signed=True)
    for a, c in zip(pset.perms, again.perms):
        assert a.signed_elements() == c.signed_elements()
