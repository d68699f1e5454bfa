"""Front-end behavior: golden outputs, flag parity, exit codes, generators."""
from __future__ import annotations

import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnest import cli, core, oracle
from bnest.common_enum import enumerate_b_nested_common
from bnest.conserved_enum import enumerate_b_nested_conserved
from bnest.conserved_tree import build_conserved_tree
from bnest.pqtree import build_pqtree
from conftest import GOLD_COMMON_RAW, GOLD_CONSERVED_RAW, random_framed_raw, random_unsigned_raw


def _write(tmp_path, name, raw):
    path = tmp_path / name
    path.write_text("".join(" ".join(str(v) for v in row) + "\n" for row in raw))
    return str(path)


@pytest.fixture
def gold_common_file(tmp_path):
    return _write(tmp_path, "common.txt", GOLD_COMMON_RAW)


@pytest.fixture
def gold_conserved_file(tmp_path):
    return _write(tmp_path, "conserved.txt", GOLD_CONSERVED_RAW)


def _run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_count_golden_common(capsys, gold_common_file):
    code, out = _run(capsys, ["count", "--mode", "common", "--b", "1",
                              "--min-size", "2", gold_common_file])
    assert (code, out) == (0, "8\n")


def test_python_m_bnest_runs_the_cli(gold_common_file):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "bnest", "count", "--b", "1", "--min-size", "2", gold_common_file],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "8\n")


_NUMPY_BLOCKED = """\
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from bnest import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_cli_runs_with_numpy_blocked(capsys, gold_common_file, gold_conserved_file):
    """bnest has no runtime dependency: with numpy unimportable, a fresh
    interpreter writes exactly what cli.main writes in-process."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for mode, path in (("common", gold_common_file), ("conserved", gold_conserved_file)):
        for command in (["count", "--b", "2"], ["enumerate", "--b", "2", "--sort"], ["tree"]):
            argv = command + ["--mode", mode, path]
            code, out = _run(capsys, argv)
            proc = subprocess.run([sys.executable, "-c", _NUMPY_BLOCKED, *argv],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert (proc.returncode, proc.stdout) == (code, out) == (0, out), proc.stderr


def test_count_golden_conserved(capsys, gold_conserved_file):
    code, out = _run(capsys, ["count", "--mode", "conserved", "--b", "2",
                              "--min-size", "2", gold_conserved_file])
    assert (code, out) == (0, "9\n")


def test_enumerate_golden_sorted(capsys, gold_common_file):
    code, out = _run(capsys, ["enumerate", "--b", "1", "--sort", gold_common_file])
    assert code == 0
    assert out.splitlines() == [
        "1 3", "1 4", "2 3", "2 4", "5 6", "7 8", "7 9", "8 9"]


def test_enumerate_count_only(capsys, gold_common_file):
    code, out = _run(capsys, ["enumerate", "--b", "1", "--count-only",
                              gold_common_file])
    assert (code, out) == (0, "8\n")


def test_stdin_input(capsys, monkeypatch):
    text = "".join(" ".join(str(v) for v in row) + "\n" for row in GOLD_COMMON_RAW)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out = _run(capsys, ["count", "--b", "1"])
    assert (code, out) == (0, "8\n")


def test_tree_text_and_json(capsys, gold_conserved_file):
    code, out = _run(capsys, ["tree", "--mode", "conserved", gold_conserved_file])
    assert code == 0 and out.startswith("S (1..9) F={1,4,5,9}\n")
    code, out = _run(capsys, ["tree", "--mode", "conserved", "--json",
                              gold_conserved_file])
    obj = json.loads(out)
    assert obj["lo"] == 1 and obj["hi"] == 9 and len(obj["children"]) == 2


def _chain_raw(mode: str, depth: int) -> list:
    """Identity plus a second permutation whose strong intervals form one
    chain of `depth` nested nodes.

    common: even labels appended and odd ones prepended, so the nodes are
    (1..k) for k = 2..n.  conserved: layer k of positions {k, n+1-k} holds
    +k ... +(n+1-k) for odd k and -(n+1-k) ... -k for even k, so the nodes
    are (k..n+1-k).
    """
    if mode == "common":
        n = depth + 1
        second = [v for v in range(n, 0, -1) if v % 2] + [v for v in range(2, n + 1, 2)]
    else:
        n = 2 * depth + 1
        second = [p if min(p, n + 1 - p) % 2 else -(n + 1 - p) for p in range(1, n + 1)]
    return [list(range(1, n + 1)), second]


@pytest.mark.parametrize("mode", ["common", "conserved"])
def test_tree_json_deep_chain(capsys, tmp_path, mode):
    depth = 10_001
    path = _write(tmp_path, "chain.txt", _chain_raw(mode, depth))
    code, out = _run(capsys, ["tree", "--json", "--mode", mode, path])
    assert code == 0
    # every node is one JSON object; leaves add a level below the common chain
    nesting = max(itertools.accumulate((c == "{") - (c == "}") for c in out))
    assert nesting == (depth + 1 if mode == "common" else depth)
    assert out.count("{") == out.count("}") and out.count("[") == out.count("]")


def _assert_json_is_the_tree(tree):
    """to_json() is the text json.dumps gives for its own parse, and a
    pre-order walk of the parsed objects meets the nodes in to_text order."""
    text = tree.to_json()
    obj = json.loads(text)
    assert json.dumps(obj) == text
    ends, stack = [], [obj]
    while stack:
        node = stack.pop()
        ends.append((node["lo"], node["hi"]))
        stack.extend(reversed(node["children"]))
    text_ends = re.findall(r"\((\d+)\.\.(\d+)\)", tree.to_text())
    assert ends == [(int(lo), int(hi)) for lo, hi in text_ends]


def test_tree_json_text_matches_json_dumps():
    rng = random.Random(515)
    for _ in range(40):
        n = rng.randint(2, 12)
        pset = core.normalize(random_unsigned_raw(rng, n, rng.randint(1, 4)))
        _assert_json_is_the_tree(build_pqtree(pset))
        pset = core.normalize(random_framed_raw(rng, n, rng.randint(1, 4)), signed=True)
        _assert_json_is_the_tree(build_conserved_tree(pset))


def test_enumerate_sorted_original_labels_match_oracle(capsys, tmp_path):
    """Byte-for-byte output of enumerate --sort --original-labels against
    the oracle's set, rendered through the recorded relabeling."""
    rng = random.Random(4242)
    for idx in range(16):
        mode = ("common", "conserved")[idx % 2]
        n = rng.randint(2, 9)
        K = rng.randint(1, 4)
        raw = random_unsigned_raw(rng, n, K) if mode == "common" else random_framed_raw(rng, n, K)
        names = rng.sample(range(1, 5 * n), n)  # original labels: any distinct positives
        raw = [[names[abs(x) - 1] * (1 if x > 0 else -1) for x in row] for row in raw]
        path = _write(tmp_path, f"inst{idx}.txt", raw)
        pset = core.normalize(raw, signed=True if mode == "conserved" else None)
        family = oracle.all_common(pset) if mode == "common" else oracle.all_conserved(pset)
        for b in (1, 2, 4):
            nested = oracle.all_b_nested(family, b)
            for ms in (1, 2):
                want = "".join(f"{pset.original_of[iv.lo]} {pset.original_of[iv.hi]}\n"
                               for iv in sorted(iv for iv in nested if iv.size() >= ms))
                code, out = _run(capsys, ["enumerate", "--sort", "--original-labels",
                                          "--mode", mode, "--b", str(b),
                                          "--min-size", str(ms), path])
                assert code == 0
                assert out == want, (mode, b, ms, raw)


def test_original_labels_round_trip(capsys, tmp_path):
    raw = [[3, 1, 4, 2, 5], [3, 4, 1, 2, 5]]
    path = _write(tmp_path, "relabel.txt", raw)
    code, renumbered = _run(capsys, ["enumerate", "--b", "5", "--sort", path])
    code2, original = _run(capsys, ["enumerate", "--b", "5", "--sort",
                                    "--original-labels", path])
    assert code == code2 == 0
    pset = core.normalize(raw)
    back = []
    for line in original.splitlines():
        a, c = (int(t) for t in line.split())
        # map endpoints back through the recorded relabeling
        inv = {pset.original_of[r]: r for r in range(1, 6)}
        back.append(f"{inv[a]} {inv[c]}")
    assert back == renumbered.splitlines()


def test_exit_validation_on_bad_input(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n1 2 4\n")
    assert cli.main(["count", str(path)]) == 1
    capsys.readouterr()


def test_exit_validation_on_frame_violation(capsys, tmp_path):
    path = tmp_path / "unframed.txt"
    path.write_text("1 2 3\n-3 2 1\n")
    assert cli.main(["count", "--mode", "conserved", str(path)]) == 1
    # --frame wraps the instance instead of rejecting it
    assert cli.main(["count", "--mode", "conserved", "--frame", str(path)]) == 0
    capsys.readouterr()


def test_exit_io_on_missing_file(capsys):
    assert cli.main(["count", "/nonexistent/instance.txt"]) == 3
    capsys.readouterr()


def test_oracle_check_ok(capsys, gold_common_file, gold_conserved_file):
    assert cli.main(["oracle-check", "--b", "2", gold_common_file]) == 0
    assert cli.main(["oracle-check", "--mode", "conserved", "--b", "1",
                     gold_conserved_file]) == 0
    capsys.readouterr()


def test_oracle_check_reports_mismatch(capsys, gold_common_file, monkeypatch):
    def broken(family, b):
        return {next(iter(family))}
    monkeypatch.setattr(oracle, "all_b_nested", broken)
    code, out = _run(capsys, ["oracle-check", "--b", "1", "--diff",
                              gold_common_file])
    assert code == 2 and "MISMATCH" in out


def test_oracle_check_diff_prints_ranges(capsys, gold_common_file, monkeypatch):
    """--diff lists intervals as (lo..hi) whether they came from the
    enumerator (plain pairs) or from the oracle (Intervals)."""
    def shifted(family, b):
        return {core.Interval(1, 2)}
    monkeypatch.setattr(oracle, "all_b_nested", shifted)
    code, out = _run(capsys, ["oracle-check", "--b", "1", "--diff", gold_common_file])
    assert code == 2
    listed = [line for line in out.splitlines() if line.startswith("  ")]
    assert "  missing (1..2)" in listed and "  spurious (2..3)" in listed
    assert all(re.fullmatch(r"  (missing|spurious) \(\d+\.\.\d+\)", line) for line in listed)


@pytest.mark.parametrize("mode, raw, oracle_count", [
    ("common", [[1, 2, 3, 4], [2, 1, 4, 3]], 2),
    ("conserved", GOLD_CONSERVED_RAW, 5),
])
def test_oracle_check_prints_both_counts(capsys, tmp_path, monkeypatch, mode, raw, oracle_count):
    """A count mismatch names the two counts, not the sizes of sets holding them."""
    path = _write(tmp_path, "inst.txt", raw)
    code, out = _run(capsys, ["count", "--mode", mode, "--b", "1", path])
    assert (code, out) == (0, f"{oracle_count}\n")
    monkeypatch.setattr(cli, f"count_b_nested_{mode}", lambda tree, b, min_size: 42)
    code, out = _run(capsys, ["oracle-check", "--mode", mode, "--b", "1", "--diff", path])
    assert (code, out) == (cli.EXIT_MISMATCH, f"MISMATCH count: fast=42 oracle={oracle_count}\n")


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "5", "--k", "2", "--model", "planted-nested", "--depth", "0"],
    ["gen", "--n", "5", "--k", "2", "--model", "planted-nested", "--depth", "-3"],
    ["gen", "--n", "5", "--k", "2", "--model", "planted-nested", "--span", "-4"],
    ["bench", "--sizes", "10", "--depth", "0"],
    ["bench", "--sizes", "10", "--k", "0"],
    ["bench", "--sizes", "0"],
    ["bench", "--sizes", "-3"],
    ["bench", "--sizes", ","],
    ["bench", "--sizes", "1,a"],
])
def test_bad_generator_flags_exit_validation(capsys, argv):
    assert cli.main(argv) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    with pytest.raises(ValueError):
        cli.config_from_args(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "1000000000000", "--k", "2"],
    ["gen", "--n", "5", "--k", "1000000000000"],
    ["gen", "--n", str(cli.MAX_GENERATED), "--k", "2"],
    ["bench", "--sizes", "1000000000000"],
    ["bench", "--sizes", "10," + str(cli.MAX_GENERATED // 2 + 1), "--k", "2"],
    ["bench", "--sizes", "10", "--k", str(cli.MAX_GENERATED + 1)],
])
def test_generated_size_ceiling_exits_validation(capsys, argv):
    """n, K or n * K above the ceiling is refused before any work starts;
    config_from_args raises first, so a missing check fails here rather
    than building the instance."""
    with pytest.raises(ValueError, match="times --k"):
        cli.config_from_args(cli.build_parser().parse_args(argv))
    assert cli.main(argv) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_generated_size_ceiling_is_inclusive():
    for argv in (["gen", "--n", str(cli.MAX_GENERATED), "--k", "1"],
                 ["bench", "--sizes", "1," + str(cli.MAX_GENERATED // 4), "--k", "4"]):
        cli.config_from_args(cli.build_parser().parse_args(argv))  # checked, not run


# Flag values: small, below range, past the generated-size ceiling or not a
# number; never a size that builds a large instance.
_SMALL = st.integers(1, 64).map(str)
_WILD = st.one_of(_SMALL, st.integers(-64, 0).map(str), st.sampled_from(["x", "", "1e3"]),
                  st.integers(cli.MAX_GENERATED + 1, 10 ** 30).map(str),
                  st.integers(-10 ** 30, -65).map(str))
_LINES = st.lists(st.lists(st.one_of(st.integers(-3, 3), st.integers(-10 ** 30, 10 ** 30))))
_BOOL_FLAGS = {
    "tree": ["--json", "--frame"],
    "enumerate": ["--sort", "--original-labels", "--count-only", "--frame"],
    "count": ["--frame"],
    "oracle-check": ["--diff", "--frame"],
    "gen": ["--signed"],
    "bench": [],
}


def _text(rows) -> bytes:
    return "".join(" ".join(map(str, row)) + "\n" for row in rows).encode()


@st.composite
def _signed_perms(draw):
    """1 to 4 permutations of up to 7 labels between 1 and 10**30, signed at random."""
    n = draw(st.integers(1, 7))
    labels = draw(st.lists(st.integers(1, 10 ** 30), min_size=n, max_size=n, unique=True))
    signs = st.lists(st.sampled_from([1, 1, -1]), min_size=n, max_size=n)
    row = st.tuples(st.permutations(labels), signs).map(lambda t: [v * s for v, s in zip(*t)])
    return draw(st.lists(row, min_size=1, max_size=4))


@st.composite
def _cli_case(draw):
    """An argv list and the bytes of its input file (None: no file).  Half
    the cases draw only small, valid flag values."""
    action = draw(st.sampled_from(list(_BOOL_FLAGS)))
    wild = draw(st.booleans())
    value = _WILD if wild else _SMALL
    argv = [action] + [flag for flag in _BOOL_FLAGS[action] if draw(st.booleans())]
    if action in ("gen", "bench"):
        if action == "gen":  # --n and --k are required
            argv += ["--n", draw(value), "--k", draw(value)]
        else:
            sizes = draw(st.lists(value, min_size=0 if wild else 1, max_size=3))
            argv += ["--sizes", ",".join(sizes)] + ["--k", draw(value)] * draw(st.booleans())
        for flag in ("--seed", "--depth", "--span"):
            if draw(st.booleans()):
                argv += [flag, draw(value)]
        argv += ["--model", draw(st.sampled_from(["uniform", "planted-nested"]))]
    else:
        argv += ["--b", draw(value), "--min-size", draw(st.sampled_from(["1", "2"]))]
    if action != "gen":
        argv += ["--mode", draw(st.sampled_from(["common", "conserved"]))]
    if wild and draw(st.booleans()):  # a usage error
        argv.append(draw(st.sampled_from(["--mode=foo", "--min-size=3", "--bogus", "--b"])))
    if action in ("gen", "bench"):
        return argv, None
    perms = _signed_perms().map(_text)
    undecodable = st.builds(lambda text, tail: text + b"\x80" + tail, perms, st.binary())
    return argv, draw(st.one_of(perms, perms, undecodable, _LINES.map(_text), st.binary(),
                                st.text().map(str.encode), st.none()))


@settings(max_examples=150, deadline=None)
@given(_cli_case())
def test_cli_fuzz_exits_with_a_documented_code(case):
    """Malformed text, undecodable bytes, huge, negative or zero labels and
    extreme flag values: every run exits 0, 1 or 3, with no traceback."""
    argv, data = case
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] not in ("gen", "bench"):
            path = os.path.join(tmp, "input.txt")
            if data is not None:  # else the file is missing
                with open(path, "wb") as fh:
                    fh.write(data)
            argv = argv + [path]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_IO), (argv, data, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv", [
    ["count", "--b", "x"],
    ["count", "--min-size", "3"],
    ["count", "--mode", "foo"],
    ["frobnicate"],
    [],
])
def test_usage_errors_exit_validation(capsys, argv):
    """argparse's own exit code 2 would read as an oracle mismatch."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err and "Traceback" not in captured.err


def test_memory_error_exits_validation(capsys, gold_common_file, monkeypatch):
    """A size under MAX_GENERATED can still exhaust memory; the parser is
    made to raise, so nothing large is allocated."""
    def exhausted(text):
        raise MemoryError
    monkeypatch.setattr(core, "parse_permutations", exhausted)
    assert cli.main(["count", gold_common_file]) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: out of memory\n")


def test_help_exits_ok(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--help"])
    assert exc.value.code == 0 and "usage: bnest count" in capsys.readouterr().out


def test_gen_deterministic(capsys):
    code, first = _run(capsys, ["gen", "--n", "9", "--k", "3", "--seed", "7"])
    code2, second = _run(capsys, ["gen", "--n", "9", "--k", "3", "--seed", "7"])
    assert code == code2 == 0 and first == second
    raw = core.parse_permutations(first)
    assert raw[0] == list(range(1, 10)) and len(raw) == 3


def test_gen_single_element(capsys):
    code, out = _run(capsys, ["gen", "--n", "1", "--k", "1"])
    assert (code, out) == (0, "1\n")


def test_gen_planted_depth(capsys):
    code, out = _run(capsys, ["gen", "--n", "9", "--k", "3", "--seed", "3",
                              "--model", "planted-nested",
                              "--depth", "2", "--span", "3"])
    assert code == 0
    tree = build_pqtree(core.normalize(core.parse_permutations(out)))
    depth = 0
    stack = [(tree.root, 1)]
    while stack:
        node, d = stack.pop()
        if not node.is_leaf:
            depth = max(depth, d)
            stack.extend((c, d + 1) for c in node.children)
    assert depth >= 3  # root plus the two planted levels


def test_gen_planted_deep_nesting(capsys):
    """Two thousand planted levels used to exceed the recursion limit."""
    code = cli.main(["gen", "--model", "planted-nested", "--n", "3000",
                     "--depth", "2000", "--span", "2500", "--k", "2", "--seed", "1"])
    err = capsys.readouterr().err
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION)
    assert code == cli.EXIT_OK or "could not plant" in err


def test_gen_signed_framed(capsys):
    code, out = _run(capsys, ["gen", "--n", "8", "--k", "3", "--seed", "2",
                              "--signed"])
    assert code == 0
    pset = core.normalize(core.parse_permutations(out), signed=True)
    core.validate_conserved_frame(pset)  # must already be framed


def test_gen_rejects_signed_planted(capsys):
    assert cli.main(["gen", "--n", "9", "--k", "3",
                     "--model", "planted-nested", "--signed"]) == 1
    capsys.readouterr()


def test_bench_csv_shape(capsys):
    code, out = _run(capsys, ["bench", "--sizes", "30,60", "--k", "3",
                              "--b", "2", "--seed", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,K,b,nocc,build_us,enum_us,scan_iters"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 7 and all(int(c) >= 0 for c in cells)


def test_bench_conserved_reports_the_framed_n(capsys):
    """A conserved bench instance is framed by two sentinels, so --sizes 5
    builds and reports n = 7."""
    code, out = _run(capsys, ["bench", "--sizes", "5", "--mode", "conserved", "--b", "2"])
    assert code == 0
    assert out.splitlines()[1].startswith("7,")


def _reversals_raw(rng: random.Random, n: int, K: int, signed: bool) -> list:
    """The identity and K-1 near-identity rows, each from n // 10 block
    reversals of 2..24 elements (negated and inside the frame +1 ... +n when
    signed).  Intervals nest deeply, so many enumerator runs share a left end."""
    raw = [list(range(1, n + 1))]
    for _ in range(K - 1):
        row = list(range(1, n + 1))
        for _ in range(n // 10):
            length = rng.randint(2, 24)
            a = rng.randint(1, n - 1 - length) if signed else rng.randint(0, n - length)
            block = row[a:a + length][::-1]
            row[a:a + length] = [-v for v in block] if signed else block
        raw.append(row)
    return raw


def _reversal_instances(tmp_path, mode: str) -> list:
    """Three (path, pset) pairs with n in 100..300 and random original labels."""
    rng = random.Random(7117 if mode == "common" else 7118)
    out = []
    for idx in range(3):
        n = rng.randint(100, 300)
        names = rng.sample(range(1, 10 * n), n)
        raw = [[names[abs(x) - 1] * (1 if x > 0 else -1) for x in row]
               for row in _reversals_raw(rng, n, 3, mode == "conserved")]
        pset = core.normalize(raw, signed=True if mode == "conserved" else None)
        out.append((_write(tmp_path, f"rev{idx}.txt", raw), pset))
    return out


@pytest.mark.parametrize("chunk", [None, 1, 3])
@pytest.mark.parametrize("mode", ["common", "conserved"])
def test_enumerate_writes_the_library_order_and_its_sort(capsys, tmp_path, monkeypatch, mode, chunk):
    """Plain enumerate writes the library's yield order and --sort writes
    sorted() of it, on instances where runs sharing a left end interleave
    with other runs; chunk sizes 1 and 3 make runs cross write boundaries."""
    if chunk is not None:
        monkeypatch.setattr(cli, "_WRITE_CHUNK", chunk)
    shared = 0
    for path, pset in _reversal_instances(tmp_path, mode):
        if mode == "common":
            tree, enum = build_pqtree(pset), enumerate_b_nested_common
        else:
            tree, enum = build_conserved_tree(pset), enumerate_b_nested_conserved
        for b in (1, 3, 16):
            for ms in (1, 2):
                seq = list(enum(tree, b, ms))
                starts = [lo for lo, _ in itertools.groupby(seq, key=lambda iv: iv[0])]
                shared += len(starts) > len(set(starts))
                for sort, original in itertools.product((False, True), repeat=2):
                    names = pset.original_of if original else range(pset.n + 1)
                    want = "".join(f"{names[lo]} {names[hi]}\n"
                                   for lo, hi in (sorted(seq) if sort else seq))
                    argv = ["enumerate", "--mode", mode, "--b", str(b), "--min-size", str(ms)]
                    argv += ["--sort"] * sort + ["--original-labels"] * original
                    code, out = _run(capsys, argv + [path])
                    assert (code, out) == (0, want), (mode, b, ms, sort, original)
    assert shared >= 3 * 3  # at least half the variants split a left end's runs


@pytest.mark.parametrize("mode", ["common", "conserved"])
def test_count_only_equals_count(capsys, tmp_path, mode):
    """enumerate --count-only sums the run lengths; count uses closed forms."""
    for path, _ in _reversal_instances(tmp_path, mode):
        for b in ("1", "2", "16"):
            for ms in ("1", "2"):
                args = ["--mode", mode, "--b", b, "--min-size", ms, path]
                code, counted = _run(capsys, ["count"] + args)
                code2, listed = _run(capsys, ["enumerate", "--count-only"] + args)
                assert code == code2 == 0
                assert counted == listed and int(counted) > 0


def test_count_equals_enumerate_across_flags(capsys, tmp_path):
    rng = random.Random(88)
    for idx in range(12):
        n = rng.randint(2, 10)
        path = _write(tmp_path, f"inst{idx}.txt",
                      random_unsigned_raw(rng, n, rng.randint(1, 4)))
        for b in ("1", "3"):
            for ms in ("1", "2"):
                args = ["--mode", "common", "--b", b, "--min-size", ms, path]
                code, counted = _run(capsys, ["count"] + args)
                code2, listed = _run(capsys, ["enumerate"] + args)
                assert code == code2 == 0
                assert int(counted) == len(listed.splitlines())


@pytest.mark.parametrize("mode", ["common", "conserved"])
def test_run_on_parsed_flags_writes_what_main_writes(capsys, tmp_path, mode):
    """The library call path run(config_from_args(parse_args(argv)), out=...)
    returns 0 and writes exactly the bytes main(argv) writes to stdout."""
    path, _ = _reversal_instances(tmp_path, mode)[0]
    for argv in (["count", "--mode", mode, "--b", "2", path],
                 ["enumerate", "--sort", "--original-labels", "--mode", mode, "--b", "2", path]):
        sink = io.StringIO()
        assert cli.run(cli.config_from_args(cli.build_parser().parse_args(argv)), out=sink) == 0
        assert _run(capsys, argv) == (0, sink.getvalue())
        assert sink.getvalue()
