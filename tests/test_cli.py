import io
import json
import os
import re
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hklat
from hklat import fqf, lattices
from hklat.cli import COMMANDS, _command_parser, _ratio_text, build_parser, main
from hklat.errors import InvalidParameter, PrimalityUnproved
from hklat.lattices import realize
from fixedlocus_fixtures import local_action_line, local_actions_by_scan
from test_lattices import count_smith_forms

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariants_expr(capsys):
    code, out, _ = run_cli(capsys, "invariants", "U(3)")
    assert code == 0
    assert "p-elementary: true (p=3, a=2)" in out
    assert "signature: (1, 1)" in out


def _count_local_keys(monkeypatch):
    """The list that every later call of `fqf.local_key` appends to."""
    calls = []
    local_key = fqf.local_key
    monkeypatch.setattr(fqf, "local_key", lambda p, blocks: calls.append(p) or local_key(p, blocks))
    return calls


def test_invariants_computes_no_normal_key(tmp_path, capsys, monkeypatch):
    # the genus is read for its signature, p and a only, cold and warm, from
    # a name or a JSON file: no local key is computed
    source = tmp_path / "lat.json"
    source.write_text(json.dumps({"gram": [list(r) for r in realize("U(3) + A2 + <-2>").gram]}))
    lattices.realize.cache_clear()
    calls = _count_local_keys(monkeypatch)
    for _ in range(2):
        for lattice in ("U + A2^2 + E6 + <-2>", str(source)):
            code, out, _ = run_cli(capsys, "invariants", lattice)
            assert code == 0 and "discriminant group: Z/" in out
    assert calls == []


def test_warm_embed_computes_no_local_key(capsys, monkeypatch):
    # the named lattice keeps its discriminant form, and the form its normal
    # key, so the warm run hashes S's genus without a key computed afresh
    argv = ("embed", "--expr", "U(3) + A2")
    lattices.realize.cache_clear()
    code, cold, _ = run_cli(capsys, *argv)
    assert code == 0 and "orthogonal class: " in cold
    calls = _count_local_keys(monkeypatch)
    assert run_cli(capsys, *argv) == (0, cold, "")
    assert calls == []


def test_warm_invariants_of_a_large_prime_proves_no_primality(capsys, monkeypatch):
    # p is read off the Jordan splitting, whose primes the form's constructor
    # found once (`exact.prime_factors` keeps them), and the atom's block is
    # kept: a warm command proves no primality
    from hklat import classify, exact

    argv = ("invariants", "K27141178092745043502159107")
    code, cold, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "p-elementary: true (p=27141178092745043502159107, a=1)" in cold.splitlines()
    calls = []
    is_prime = exact.is_prime
    for module in (exact, lattices, fqf, classify):
        monkeypatch.setattr(
            module, "is_prime", lambda n: calls.append(n) or is_prime(n), raising=False
        )
    assert run_cli(capsys, *argv) == (0, cold, "")
    assert calls == []


def test_invariants_json_file(tmp_path, capsys):
    # U, and U^2 on another basis (whose Smith form modulo det² = 1 once
    # divided by zero)
    u2 = [[4, -8, 11, 8], [-8, 16, -23, -17], [11, -23, 28, 19], [8, -17, 19, 12]]
    for data in ({"gram": [[0, 1], [1, 0]], "name": "U"}, {"gram": u2}):
        f = tmp_path / "lat.json"
        f.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "invariants", str(f))
        assert code == 0
        assert "discriminant group: trivial" in out


@pytest.mark.parametrize(
    "lattice, error",
    [
        (".json", "cannot parse lattice term '.json'"),
        ("x.json/", "cannot parse lattice term 'x.json/'"),
        ("./missing.json", "[Errno 2] No such file or directory: './missing.json'"),
        ("X.JSON", "cannot parse lattice term 'X.JSON'"),
    ],
)
def test_invariants_reads_a_file_only_on_the_suffix_json(lattice, error, tmp_path, capsys, monkeypatch):
    # a Gram file stands under every name but the missing one: a dotfile,
    # a trailing slash and another case are expressions, and a path is
    # named as typed
    monkeypatch.chdir(tmp_path)
    for name in (".json", "x.json", "X.JSON"):
        (tmp_path / name).write_text(json.dumps({"gram": [[0, 3], [3, 0]]}))
    code, out, err = run_cli(capsys, "invariants", lattice)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {error}"]


def test_invariants_rejects_odd_lattice(tmp_path, capsys):
    f = tmp_path / "odd.json"
    f.write_text(json.dumps({"gram": [[1]]}))
    code, _, err = run_cli(capsys, "invariants", str(f))
    assert code == 2
    assert "even" in err


def test_invariants_rejects_garbage(capsys):
    # unparsable terms, and a term the catalog refuses (5 = 1 mod 4), on
    # every call: a rejection is not kept
    for expr in ("Q17", "U + Q17", "K5") * 2:
        code, out, err = run_cli(capsys, "invariants", expr)
        assert (code, out) == (1, "") and err.startswith("error: ")


def test_tables_p19_csv(capsys):
    code, out, _ = run_cli(capsys, "tables", "--prime", "19", "--format", "csv")
    assert code == 0
    data_row = out.strip().split("\n")[1]
    assert ",20,20," in data_row
    assert data_row.startswith("19,1,1,")


def test_tables_all_golden(capsys):
    for fmt, name in (("md", "tables_all.md"), ("csv", "tables_all.csv"), ("json", "tables_all.json")):
        code, out, _ = run_cli(capsys, "tables", "--all", "--format", fmt)
        assert code == 0
        assert out == (GOLDEN / name).read_text(), f"golden diff for {name}"


def test_tables_single_golden(capsys):
    code, out, _ = run_cli(capsys, "tables", "--prime", "19", "--format", "csv")
    assert out == (GOLDEN / "table_p19.csv").read_text()


def test_tables_out_file(tmp_path, capsys):
    target = tmp_path / "t.csv"
    code, out, _ = run_cli(capsys, "tables", "--prime", "17", "--format", "csv", "--out", str(target))
    assert code == 0 and out == ""
    assert ",35,35," in target.read_text()


# The paper's eight artefacts and the golden file each must equal.
ARTEFACTS = {
    "tables_all.md": ("tables", "--all", "--format", "md"),
    "tables_all.csv": ("tables", "--all", "--format", "csv"),
    "tables_all.json": ("tables", "--all", "--format", "json"),
    "table_p19.csv": ("tables", "--prime", "19", "--format", "csv"),
    "figure1.txt": ("figures", "--which", "1", "--format", "txt"),
    "figure1.json": ("figures", "--which", "1", "--format", "json"),
    "figure2.txt": ("figures", "--which", "2", "--format", "txt"),
    "figure2.json": ("figures", "--which", "2", "--format", "json"),
}


@pytest.mark.parametrize("golden", ARTEFACTS)
def test_out_file_holds_the_bytes_stdout_prints(golden, tmp_path, capsys):
    # the final newline too: the text of tables --all --format json and of
    # every figure ends without one, which only stdout used to add
    target = tmp_path / golden
    assert run_cli(capsys, *ARTEFACTS[golden], "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == (GOLDEN / golden).read_bytes()


def test_ascii_stdout_exits_1_with_nothing_written(tmp_path, capsys, monkeypatch):
    # an ASCII locale's stdout cannot encode the chart's marks: the answer is
    # encoded whole before anything is written, so nothing is; --out writes
    # UTF-8 whatever the locale
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["figures", "--which", "1"]) == 1
    stdout.flush()
    assert stdout.buffer.getvalue() == b""
    err = capsys.readouterr().err
    assert err.startswith("error: 'ascii' codec can't encode") and err.count("\n") == 1
    target = tmp_path / "figure1.txt"
    assert main(["figures", "--which", "1", "--out", str(target)]) == 0
    stdout.flush()
    assert stdout.buffer.getvalue() == b"" and capsys.readouterr().err == ""
    assert target.read_bytes() == (GOLDEN / "figure1.txt").read_bytes()


def test_tables_requires_prime_or_all(capsys):
    code, _, err = run_cli(capsys, "tables", "--format", "csv")
    assert code == 1


def test_figures_golden(capsys):
    for which in (1, 2):
        code, out, _ = run_cli(capsys, "figures", "--which", str(which), "--format", "json")
        assert code == 0
        assert out == (GOLDEN / f"figure{which}.json").read_text()
        code, out, _ = run_cli(capsys, "figures", "--which", str(which), "--format", "txt")
        assert code == 0
        assert out == (GOLDEN / f"figure{which}.txt").read_text()


def test_figures_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "figures", "--which", "1", "--format", "json")
    data = json.loads(out)
    assert data["figure"] == 1
    assert {"r": 20, "a": 2, "delta_t": 1} in data["points"]


def test_figures_rejects_other_orders(capsys):
    code, _, err = run_cli(capsys, "figures", "--order", "3", "--which", "1")
    assert code == 1


def test_embed(capsys):
    code, out, _ = run_cli(capsys, "embed", "--expr", "U^2 + E8^2 + A2")
    assert code == 0
    assert "embeds in U^3 + E8^2 + <-2>: yes" in out
    assert "orthogonal class: <6>" in out
    code, out, _ = run_cli(capsys, "embed", "--expr", "U^2 + E8 + E6*(3)")
    assert "embeds in U^3 + E8^2 + <-2>: no" in out


def test_involution(capsys):
    code, out, _ = run_cli(capsys, "involution", "--r", "2", "--a", "2", "--delta", "1")
    assert code == 0
    assert "case I" in out and "case II" in out
    code, out, _ = run_cli(capsys, "involution", "--r", "1", "--a", "1", "--delta", "0")
    assert code == 2
    # the lattice exists but is too large for L: an answer, not an error
    code, out, err = run_cli(capsys, "involution", "--r", "24", "--a", "2", "--delta", "1")
    assert (code, out, err) == (0, "no primitive embedding in U^3 + E8^2 + <-2>\n", "")


def test_census(tmp_path, capsys):
    f = tmp_path / "locus.json"
    f.write_text(json.dumps({"p": 3, "k": 2, "n": [0, 5]}))
    code, out, _ = run_cli(capsys, "census", str(f), "--check", "3,5,5")
    assert code == 0
    assert "MATCH" in out
    code, out, _ = run_cli(capsys, "census", str(f), "--check", "3,6,4")
    assert code == 2
    assert "MISMATCH" in out


def test_local_actions(capsys):
    code, out, _ = run_cli(capsys, "local-actions", "--prime", "7")
    assert code == 0
    assert "multiplicities (2, 2, 0)" in out


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 17, 19, 23))
def test_local_actions_print_each_record_formatted_whole(capsys, p):
    code, out, _ = run_cli(capsys, "local-actions", "--prime", str(p))
    assert code == 0
    assert out == "".join(local_action_line(rec) + "\n" for rec in local_actions_by_scan(p))


def test_parser_rejects_missing_subcommand():
    with pytest.raises(InvalidParameter):
        build_parser().parse_args([])


def test_console_entry_point():
    out = _fresh_process("tables", "--prime", "13", "--format", "csv")
    assert "no-known-realization" in out or "True" in out


def test_tables_json_roundtrip(capsys):
    _, out, _ = run_cli(capsys, "tables", "--all", "--format", "json")
    records = json.loads(out)
    assert len(records) == 45
    assert {"p", "m", "a", "chi", "h_star", "S", "T"} <= set(records[0])


def test_embed_rejects_mixed_group(capsys):
    code, _, err = run_cli(capsys, "embed", "--expr", "<6> + E8")
    assert code == 2


INPUT_FILES = {
    "ragged.json": '{"gram": [[0, 1], [1]]}',
    "infinite.json": '{"gram": [[Infinity]]}',
    "truncated.json": '{"gram": [[0, 1],',
    "odd.json": '{"gram": [[1]]}',
    "wide.json": '{"gram": [[0, 1]]}',
    "misnamed.json": '{"gram": [[0, 1], [1, 0]], "name": "A2"}',
    "empty.json": "{}",
    "locus.json": '{"p": 3, "k": 2, "n": [0, 5]}',
    # its totals are those of the row (19, 1, 1)
    "order3.json": '{"p": 3, "k": 0, "n": [0, 5]}',
    "float.json": '{"gram": [[2.9, 1], [1, 2]]}',
    "bool.json": '{"gram": [[true]]}',
    "string.json": '{"gram": [["2", "1"], ["1", "2"]]}',
    "float_p.json": '{"p": 3.7, "k": 2, "n": [0, 5]}',
    "float_n.json": '{"p": 3, "k": 2, "n": [0, 5.0]}',
    "bool_k.json": '{"p": 3, "k": true, "n": [0, 5]}',
    "scalar_n.json": '{"p": 3, "k": 0, "n": 5}',
    # 2^61 - 1 with no "n": the default of p - 1 zeros must not be built
    "huge_p.json": '{"p": 2305843009213693951}',
    "p23.json": '{"p": 23, "k": 0}',
    "singular.json": '{"gram": [[2, 2], [2, 2]]}',
    # no nonzero diagonal entry: rejected where the pivot repair would add a row
    "null.json": '{"gram": [[0, 0], [0, 0]]}',
    "rank0.json": '{"gram": []}',
    "asym.json": '{"gram": [[0, 1], [2, 0]]}',
    # both asymmetric and odd: symmetry is tested first
    "asym_odd.json": '{"gram": [[1, 1], [2, 0]]}',
    "latin1.json": b'{"gram": [[0, 1], [1, 0]], "name": "\xff"}',
    # nested deeper than the recursion limit
    "deep.json": '{"gram": ' + "[" * 5000 + "]" * 5000 + "}",
    "deep_locus.json": '{"p": 3, "n": ' + "[" * 5000 + "]" * 5000 + "}",
    "scalar_gram.json": '{"gram": 5}',
    "badname.json": '{"gram": [[0, 1], [1, 0]], "name": "Q"}',
    # longer than the interpreter converts: json raises a plain ValueError
    "long_int.json": '{"gram": [[2' + "0" * 5000 + "]]}",
    # read, but its census holds integers longer than the interpreter writes
    "long_count.json": '{"p": 3, "k": 0, "n": [1' + "0" * 2500 + ", 0]}",
}


FAILURES = [
    (("invariants", "Q17"), 1),
    (("invariants", "ragged.json"), 1),
    (("invariants", "infinite.json"), 1),
    (("invariants", "truncated.json"), 1),
    (("invariants", "wide.json"), 1),
    (("invariants", "misnamed.json"), 1),
    (("embed", "--expr", "misnamed.json"), 1),
    (("invariants", "missing.json"), 1),
    (("embed", "--expr", "nothere.json"), 1),
    (("census", "empty.json"), 1),
    (("local-actions", "--prime", "4"), 1),
    (("local-actions", "--prime", "29"), 1),
    (("local-actions", "--prime", "10000000000000000051"), 1),  # a 20-digit prime
    (("census", "locus.json", "--check", "3,5"), 1),
    # a row of another prime says nothing about the locus, match or not
    (("census", "order3.json", "--check", "19,1,1"), 1),
    (("census", "locus.json", "--check", "7,2,1"), 1),
    (("invariants", "float.json"), 1),
    (("embed", "--expr", "float.json"), 1),
    (("invariants", "bool.json"), 1),
    (("invariants", "string.json"), 1),
    (("census", "float_p.json"), 1),
    (("census", "float_n.json"), 1),
    (("census", "bool_k.json"), 1),
    (("census", "scalar_n.json"), 1),
    (("census", "huge_p.json"), 1),
    (("census", "p23.json"), 1),
    (("tables", "--format", "xml", "--all"), 1),
    (("figures", "--which", "3"), 1),
    (("involution", "--r", "2", "--a", "2", "--delta", "5"), 1),
    (("involution", "--r", "-4", "--a", "0", "--delta", "0"), 1),
    (("involution", "--r", "0", "--a", "0", "--delta", "1"), 1),
    (("involution", "--r", "2", "--a", "-1", "--delta", "1"), 1),
    (("embed",), 1),
    (("bogus",), 1),
    # catalog atoms rejected by their parameters, none by _block
    (("invariants", "E6*(2)"), 1),
    (("invariants", "A4*(3)"), 1),
    (("invariants", "<3>"), 1),
    (("invariants", "K5"), 1),
    (("invariants", "H7"), 1),
    (("invariants", "odd.json"), 2),
    (("invariants", "singular.json"), 2),
    (("invariants", "null.json"), 2),
    (("invariants", "rank0.json"), 1),
    (("embed", "--expr", "rank0.json"), 1),
    (("invariants", "asym.json"), 2),
    (("invariants", "asym_odd.json"), 2),
    (("invariants", "latin1.json"), 1),
    (("embed", "--expr", "latin1.json"), 1),
    (("census", "latin1.json"), 1),
    (("invariants", "deep.json"), 1),
    (("embed", "--expr", "deep.json"), 1),
    (("census", "deep_locus.json"), 1),
    (("invariants", "scalar_gram.json"), 1),
    (("invariants", ""), 1),
    (("invariants", "A0"), 1),
    # above the rank bound: rejected as parsed, before any block is built
    (("invariants", "U^99999999999"), 1),
    (("invariants", "A99999999"), 1),
    (("embed", "--expr", "D99999999"), 1),
    # integers longer than the interpreter converts, rejected as read
    (("invariants", "U^" + "9" * 5000), 1),
    (("invariants", "U(" + "7" * 5000 + ")"), 1),
    (("embed", "--expr", "<" + "8" * 5000 + ">"), 1),
    (("invariants", "long_int.json"), 1),
    (("invariants", "badname.json"), 1),
    # answers holding an integer longer than the interpreter writes
    (("invariants", "U(1" + "0" * 2200 + ")"), 1),
    (("census", "long_count.json"), 1),
]


def _failure_id(argv):
    """argv joined, a run of 100 or more digits named by its first digit and length."""
    return re.sub(r"\d{100,}", lambda m: f"{m[0][0]}x{len(m[0])}", " ".join(argv))


# the one line _block writes for each Gram matrix it rejects
BLOCK_ERRORS = {
    "ragged.json": "error: Gram matrix must be square\n",
    "wide.json": "error: Gram matrix must be square\n",
    "asym.json": "error: Gram matrix must be symmetric\n",
    "asym_odd.json": "error: Gram matrix must be symmetric\n",
    "odd.json": "error: lattice is not even: odd diagonal entry\n",
    "singular.json": "error: lattice is degenerate\n",
    "null.json": "error: lattice is degenerate\n",
    "rank0.json": "error: Gram matrix must not be empty\n",
}

# the one line each of these inputs writes: all but the last two before any
# block is built
INPUT_ERRORS = {
    "scalar_gram.json": "error: not an integer matrix: 'int' object is not iterable\n",
    # the name's own rejection, not wrapped as malformed JSON
    "badname.json": "error: cannot parse lattice term 'Q'\n",
    "": "error: empty lattice expression\n",
    "A0": "error: A_k needs k >= 1\n",
    "U^99999999999": f"error: lattice expression of rank above {lattices.MAX_RANK}\n",
    "A99999999": f"error: lattice expression of rank above {lattices.MAX_RANK}\n",
    "D99999999": f"error: lattice expression of rank above {lattices.MAX_RANK}\n",
    "U^" + "9" * 5000: "error: integer too long in a lattice term\n",
    "U(" + "7" * 5000 + ")": "error: integer too long in a lattice term\n",
    "<" + "8" * 5000 + ">": "error: integer too long in a lattice term\n",
    # answers holding an integer longer than the interpreter writes
    "U(1" + "0" * 2200 + ")": "error: the answer holds an integer of more than 4,300 digits\n",
    "long_count.json": "error: the answer holds an integer of more than 4,300 digits\n",
}


@pytest.mark.parametrize(
    "argv, expected_code", FAILURES, ids=[_failure_id(argv) for argv, _ in FAILURES]
)
def test_failures_exit_typed_with_empty_stdout(tmp_path, monkeypatch, capsys, argv, expected_code):
    monkeypatch.chdir(tmp_path)
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (expected_code, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    if argv[-1] in BLOCK_ERRORS:
        assert err == BLOCK_ERRORS[argv[-1]]
    if argv[-1] in INPUT_ERRORS:
        assert err == INPUT_ERRORS[argv[-1]]


def test_the_largest_planned_sum_answers_within_the_rank_bound(capsys):
    code, out, err = run_cli(capsys, "invariants", "E8^200")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:5] == [
        "rank: 1600", "signature: (0, 1600)", "det: 1", "discriminant group: trivial"
    ]


def test_determinism(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "tables", "--all", "--format", "json")
        outs.add(out)
    assert len(outs) == 1


@pytest.mark.parametrize("argv", [("invariants", "missing.json"), ("embed", "--expr", "missing.json")])
def test_missing_json_file_is_an_os_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(OSError) as exc:
        Path("missing.json").read_text()
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {exc.value}\n")


def test_non_utf8_file_is_named_in_its_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.json").write_bytes(INPUT_FILES["latin1.json"])
    code, out, err = run_cli(capsys, "invariants", "latin1.json")
    assert (code, out) == (1, "")
    assert err.startswith("error: latin1.json is not UTF-8 text: ")


def test_warm_embed_calls_jordan_blocks_zero_times(capsys, monkeypatch):
    # S's atoms were split when their forms were built, and a form is its
    # splitting; q_T = (-q_S) + q_L is built from blocks by neg and dsum, so
    # neither the existence test nor recognize splits anything
    argv = ("embed", "--expr", "U^2 + E8^2 + A2")
    run_cli(capsys, *argv)
    split = []
    jordan_blocks = lattices.jordan_blocks
    monkeypatch.setattr(lattices, "jordan_blocks", lambda *args: split.append(args) or jordan_blocks(*args))
    code, out, _ = run_cli(capsys, *argv)
    assert (code, "orthogonal class: <6>\n" in out) == (0, True)
    assert split == []


class DeadlineExceeded(Exception):
    pass


def _past_deadline(signum, frame):
    raise DeadlineExceeded


def _run_cli_within(capsys, seconds, *argv):
    """run_cli, raising DeadlineExceeded after the given seconds."""
    previous = signal.signal(signal.SIGALRM, _past_deadline)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return run_cli(capsys, *argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "name",
    [
        "<1000002>", "E8(101)", "A10(11)", "A6^2 + E6*(-6) + A2^2", "A1(-1)^2 + E6*(-3)^2",
        "K2305843009213693951", "<4611686018427387902>", "<2000000032000000126>",
        "<1237940039285380274899124222>",
    ],
)
def test_invariants_of_large_discriminant_groups(capsys, name):
    # discriminant groups of order 1000002, 101^8 and 11^11; the sums ran
    # past 20 s when the Smith form was eliminated without a modulus, the
    # next two (2^61 - 1 and twice it) when primality was trial division,
    # the next (2·1000000007·1000000009) when factoring was, and the last
    # (2·(2^89 - 1)) when primality above the Miller-Rabin bound was
    code, out, err = _run_cli_within(capsys, 5, "invariants", name)
    assert (code, err) == (0, "")
    s_plus, s_minus = realize(name).signature()
    assert f"\ngauss signature (mod 8): {(s_plus - s_minus) % 8}\n" in out


def test_embed_certifies_a_complement_of_a_large_discriminant_group(capsys):
    # T has rank 3 and |A_T| = 2p^2, p = 1000000000039; the one-class test
    # ran past 30 s when it tried every k with k^3 <= 8p^2
    code, out, err = _run_cli_within(capsys, 5, "embed", "--expr", "U + U(1000000000039) + E8^2")
    assert (code, err) == (0, "")
    assert "\ncomplement unique in its genus (one-class certificate)\n" in out


def test_embed_of_a_long_sum_answers_at_once(capsys):
    # the discriminant form of A2^1000 puts 1000 blocks together; it ran
    # about 20 s when each pairwise sum copied the generator matrix
    code, out, err = _run_cli_within(capsys, 5, "embed", "--expr", "A2^1000")
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == [
        "S = A2^1000: signature (0, 2000), p-elementary p=3, a=1000",
        "embeds in U^3 + E8^2 + <-2>: no",
    ]


def _run_fresh(*args):
    # the child interpreter imports the same hklat as the tests do
    src = str(Path(hklat.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _fresh_python(*args):
    proc = _run_fresh(*args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _fresh_process(*argv):
    return _fresh_python("-m", "hklat.cli", *argv)


def test_cli_import_loads_neither_dataclasses_nor_cmath():
    heavy = "{'dataclasses', 'cmath', 'fractions', 'decimal'}"
    probe = f"import sys, hklat.cli; print(sorted({heavy} & set(sys.modules)))"
    assert _fresh_python("-c", probe) == "[]\n"


LAYERS = ("classify", "errors", "exact", "fixedlocus", "fqf", "involutions", "lattices", "tables")
# The hklat.<layer> modules registered in sys.modules whose body has not run:
# LazyLoader gives an unloaded module its own class and restores ModuleType
# when it loads.
UNLOADED = "sorted(n for n, m in sys.modules.items() if n.startswith('hklat.') and type(m) is not types.ModuleType)"


def test_import_registers_every_layer_and_loads_none():
    # perfbench/spans.py reads sys.modules[f"hklat.{layer}"] after `import hklat`
    probe = (
        "import sys, types, hklat\n"
        "print(sorted(n for n in sys.modules if n.startswith('hklat.')))\n"
        f"print({UNLOADED})\n"
        "embed_in_L = hklat.classify.embed_in_L\n"
        f"print(embed_in_L is sys.modules['hklat.classify'].embed_in_L, {UNLOADED})\n"
    )
    registered, unloaded, after = _fresh_python("-c", probe).splitlines()
    assert registered == unloaded == repr([f"hklat.{layer}" for layer in LAYERS])
    # L's genus is a value in `classify`, which reaches `lattices` at call time
    assert after == "True " + repr(
        ["hklat.fixedlocus", "hklat.involutions", "hklat.lattices", "hklat.tables"]
    )


CORE = ("errors", "exact", "fqf", "lattices")

# The layers each fresh command loads besides `cli`, and which of `json` and
# `csv` it loads: each is imported only by the formats that read or write it.
COMMAND_LAYERS = {
    "invariants": (("invariants", "U(3)"), (*CORE, "classify"), ()),
    "invariants-json": (("invariants", "GRAM"), (*CORE, "classify"), ("json",)),
    # L's genus is `classify.AMBIENT_GENUS`: the tables build no lattice
    "tables": (
        ("tables", "--prime", "19", "--format", "csv"),
        ("errors", "exact", "fqf", "classify", "tables"),
        ("csv",),
    ),
    "tables-md": (
        ("tables", "--all", "--format", "md"), ("errors", "exact", "fqf", "classify", "tables"), ()
    ),
    "tables-json": (
        ("tables", "--prime", "19", "--format", "json"),
        ("errors", "exact", "fqf", "classify", "tables"),
        ("json",),
    ),
    "figures": (("figures", "--which", "1", "--format", "txt"), ("errors", "involutions"), ()),
    "figures-json": (
        ("figures", "--which", "2", "--format", "json"), ("errors", "involutions"), ("json",)
    ),
    "embed": (("embed", "--expr", "U(3)"), (*CORE, "classify"), ()),
    "involution": (
        ("involution", "--r", "10", "--a", "4", "--delta", "1"), ("errors", "involutions"), ()
    ),
    "census": (("census", "LOCUS"), ("errors", "exact", "fixedlocus"), ("json",)),
    "census-check": (
        ("census", "LOCUS", "--check", "3,5,5"),
        ("errors", "exact", "fixedlocus", "tables"),
        ("json",),
    ),
    "local-actions": (("local-actions", "--prime", "7"), ("errors", "exact", "fixedlocus"), ()),
}


def test_command_layer_table_covers_every_command():
    assert {argv[0] for argv, _, _ in COMMAND_LAYERS.values()} == set(COMMANDS)


@pytest.mark.parametrize("argv, layers, formats", COMMAND_LAYERS.values(), ids=COMMAND_LAYERS)
def test_fresh_command_loads_only_the_layers_it_runs(argv, layers, formats, tmp_path):
    locus = tmp_path / "locus.json"
    locus.write_text(json.dumps({"p": 3, "k": 2, "n": [0, 5]}))
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({"gram": [[0, 3], [3, 0]]}))
    argv = [{"LOCUS": str(locus), "GRAM": str(gram)}.get(arg, arg) for arg in argv]
    probe = (
        "import contextlib, io, sys, types\n"
        "from hklat.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        f"print(code, {UNLOADED}, sorted({{'csv', 'json'}} & set(sys.modules)))\n"
    )
    unloaded = [f"hklat.{layer}" for layer in LAYERS if layer not in layers]
    assert _fresh_python("-c", probe) == f"0 {unloaded!r} {sorted(formats)!r}\n"


# Calls that print L's name or only parse, and the layers each loads besides
# `cli`: L's name is `hklat.AMBIENT`, so none of them loads `lattices`.
NAMING_CALLS = {
    "build_parser": ("build_parser()", ("errors",)),
    "help": ("main(['--help'])", ("errors",)),
    "no-arguments": ("main([])", ("errors",)),
    "unknown-command": ("main(['bogus'])", ("errors",)),
    "involution-no-embedding": (
        "main(['involution', '--r', '14', '--a', '10', '--delta', '0'])", ("errors", "involutions")
    ),
    "involution-no-lattice": (
        "main(['involution', '--r', '1', '--a', '1', '--delta', '0'])", ("errors", "involutions")
    ),
}


@pytest.mark.parametrize("call, layers", NAMING_CALLS.values(), ids=NAMING_CALLS)
def test_fresh_parse_or_naming_L_loads_no_arithmetic(call, layers):
    probe = (
        "import contextlib, io, sys, types\n"
        "from hklat.cli import build_parser, main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        f"        {call}\n"
        "    except SystemExit:  # --help\n"
        "        pass\n"
        f"print({UNLOADED})\n"
    )
    unloaded = [f"hklat.{layer}" for layer in LAYERS if layer not in layers]
    assert _fresh_python("-c", probe) == f"{unloaded!r}\n"


def test_error_raised_in_a_lazy_layer_exits_typed_with_empty_stdout():
    # `tables` rejects the prime inside hklat.tables, loaded on first use
    proc = _run_fresh("-m", "hklat.cli", "tables", "--prime", "4")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == ["error: unsupported prime 4"]


def test_fresh_commands_load_no_pathlib(tmp_path):
    # without `site`, which loads pathlib itself, no command loads it:
    # files are read and written with `open`
    locus = tmp_path / "locus.json"
    locus.write_text(json.dumps({"p": 3, "k": 2, "n": [0, 5]}))
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({"gram": [[0, 3], [3, 0]]}))
    runs = [
        ["invariants", "U(3)"],
        ["embed", "--expr", str(gram)],
        ["census", str(locus), "--check", "3,5,5"],
        ["tables", "--prime", "19", "--out", str(tmp_path / "F")],
        ["figures", "--which", "1"],
    ]
    probe = (
        "import contextlib, io, sys\n"
        "from hklat.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {runs!r}]\n"
        "print(codes, sorted({'pathlib', 'urllib.parse'} & set(sys.modules)))\n"
    )
    assert _fresh_python("-S", "-c", probe) == "[0, 0, 0, 0, 0] []\n"


def test_embed_computes_before_it_prints(capsys, monkeypatch):
    # recognition runs after the first lines of the answer are known; an
    # error there still leaves stdout empty
    def unproved(target):
        raise PrimalityUnproved("no proof")

    monkeypatch.setattr(lattices, "recognize", unproved)
    code, out, err = run_cli(capsys, "embed", "--expr", "A2 + U(3)")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: no proof"]


def test_only_the_integer_limit_is_named_as_a_long_answer(capsys, monkeypatch):
    # any other ValueError of a handler is printed as it is, still with exit 1
    def failing(source):
        raise ValueError("not a digit limit")

    monkeypatch.setattr(lattices, "realize", failing)
    assert run_cli(capsys, "invariants", "U") == (1, "", "error: not a digit limit\n")


def test_invariants_prints_values_as_fractions_print_them():
    for n in range(1, 401):
        for v in range(2 * n):
            assert _ratio_text(v, n) == str(Fraction(v, n)), (v, n)


def test_one_parser_serves_a_session(capsys):
    code, out, _ = run_cli(capsys, "tables", "--all", "--format", "csv")
    assert (code, out) == (0, (GOLDEN / "tables_all.csv").read_text())
    assert run_cli(capsys, "tables", "--format", "xml")[:2] == (1, "")
    # --all from the first call must not carry over
    code, out, _ = run_cli(capsys, "tables", "--prime", "19", "--format", "csv")
    assert (code, out) == (0, (GOLDEN / "table_p19.csv").read_text())
    code, out, _ = run_cli(capsys, "figures", "--which", "2", "--format", "json")
    assert (code, out) == (0, (GOLDEN / "figure2.json").read_text())
    fresh = _fresh_process("invariants", "U(3)")
    for _ in range(2):
        assert run_cli(capsys, "invariants", "U(3)")[:2] == (0, fresh)


@pytest.mark.parametrize(
    "argv, name",
    [(("invariants", "U(3)"), "U(3)"), (("embed", "--expr", "U^2 + E8^2 + A2"), "U^2 + E8^2 + A2")],
)
def test_named_lattice_determinant_computed_once(monkeypatch, capsys, argv, name):
    # a realized lattice multiplies its atoms' determinants: no elimination
    # on its full Gram matrix (unless it is one atom), and one per atom per
    # process, which gives the atom's det and signature
    gram = realize(name).gram
    atoms = {lattices.atom_data(atom, t).gram for atom, t, _ in lattices.parse_expr(name).summands}
    real_elimination = lattices.signature_of_symmetric
    grams = []

    def counting_elimination(m):
        grams.append(m)
        return real_elimination(m)

    monkeypatch.setattr(lattices, "signature_of_symmetric", counting_elimination)
    lattices.atom_data.cache_clear()
    lattices.realize.cache_clear()
    for _ in range(2):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
    assert all(grams.count(atom) == 1 for atom in atoms)
    assert len(grams) == len(set(grams))
    assert gram in atoms or gram not in grams


@pytest.mark.parametrize("named", (False, True))
def test_invariants_runs_one_smith_form_on_the_full_gram(monkeypatch, tmp_path, capsys, named):
    # one Smith form on the full Gram matrix, from a JSON file or a name, and
    # for a name one per atom per process
    name = "U^2 + E8^2 + A2"
    gram = realize(name).gram
    atoms = set()
    source = name
    if named:
        atoms = {lattices.atom_data(atom, t).gram for atom, t, _ in lattices.parse_expr(name).summands}
    else:
        source = tmp_path / "lat.json"
        source.write_text(json.dumps({"gram": [list(row) for row in gram]}))
    grams = count_smith_forms(monkeypatch)
    lattices.atom_data.cache_clear()
    lattices.realize.cache_clear()
    code, out, _ = run_cli(capsys, "invariants", str(source))
    assert code == 0 and "discriminant group: Z/3" in out
    assert len(grams) == len(set(grams))
    assert set(grams) == {gram} | atoms


def test_warm_named_invariants_runs_no_smith_form_and_no_sum(monkeypatch, capsys):
    # the named lattice keeps its Smith-form data and its summed form
    name = "U^2 + E8^2 + A2"
    first = run_cli(capsys, "invariants", name)
    calls = []

    def counting(real, label):
        def wrapper(*args):
            calls.append(label)
            return real(*args)
        return wrapper

    snf = counting(lattices.smith_normal_form, "smith_normal_form")
    monkeypatch.setattr(lattices, "smith_normal_form", snf)
    monkeypatch.setattr(fqf.FiniteQuadraticForm, "dsum", counting(fqf.FiniteQuadraticForm.dsum, "dsum"))
    assert run_cli(capsys, "invariants", name) == first
    assert first[0] == 0 and calls == []


def test_json_lattice_rewritten_between_calls_is_read_again(tmp_path, capsys):
    source = tmp_path / "lat.json"
    source.write_text(json.dumps({"gram": [[-2, 1], [1, -2]]}))
    first = run_cli(capsys, "invariants", str(source))
    assert first[0] == 0 and "det: 3" in first[1]
    source.write_text(json.dumps({"gram": [[0, 3], [3, 0]]}))
    second = run_cli(capsys, "invariants", str(source))
    assert second[:2] == (0, _fresh_process("invariants", str(source)))
    assert "det: -9" in second[1] and "discriminant group: Z/3 x Z/3" in second[1]


# `hklat <command> --help` at 80 columns, as the subparsers of one
# top-level parser printed it before each command had a parser of its own.
COMMAND_HELP = {
    "invariants": """\
usage: hklat invariants [-h] lattice

positional arguments:
  lattice

options:
  -h, --help  show this help message and exit
""",
    "tables": """\
usage: hklat tables [-h] [--prime PRIME] [--all] [--format {md,csv,json}]
                    [--out OUT]

options:
  -h, --help            show this help message and exit
  --prime PRIME
  --all
  --format {md,csv,json}
  --out OUT
""",
    "figures": """\
usage: hklat figures [-h] --which {1,2} [--format {json,txt}] [--out OUT]

options:
  -h, --help           show this help message and exit
  --which {1,2}
  --format {json,txt}
  --out OUT
""",
    "embed": """\
usage: hklat embed [-h] --expr EXPR

options:
  -h, --help   show this help message and exit
  --expr EXPR
""",
    "involution": """\
usage: hklat involution [-h] --r R --a A --delta {0,1}

options:
  -h, --help     show this help message and exit
  --r R
  --a A
  --delta {0,1}
""",
    "census": """\
usage: hklat census [-h] [--check p,m,a] file

positional arguments:
  file

options:
  -h, --help     show this help message and exit
  --check p,m,a
""",
    "local-actions": """\
usage: hklat local-actions [-h] --prime PRIME

options:
  -h, --help     show this help message and exit
  --prime PRIME
""",
}

TOP_HELP = """\
usage: hklat [-h]
             {invariants,tables,figures,embed,involution,census,local-actions}
             ...

Even-lattice invariants and the prime-order non-symplectic automorphism
classification for K3^[2]-type fourfolds.

positional arguments:
  {invariants,tables,figures,embed,involution,census,local-actions}
    invariants          invariants of a lattice (expr or JSON file)
    tables              classification tables
    figures             order-2 embedding charts
    embed               embedding report for S in U^3 + E8^2 + <-2>
    involution          embedding classes of a 2-elementary T
    census              Hilbert-square fixed-locus census
    local-actions       local eigenvalue patterns at fixed points

options:
  -h, --help            show this help message and exit
"""

CHOICES = "'invariants', 'tables', 'figures', 'embed', 'involution', 'census', 'local-actions'"


def _help_of(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("command", list(COMMAND_HELP))
def test_command_help_is_unchanged(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert list(COMMANDS) == list(COMMAND_HELP)
    assert _help_of(capsys, command, "--help") == (0, COMMAND_HELP[command], "")
    # the same text as the command's subparser under the top-level parser
    assert _help_of(capsys, command, "-h") == (0, COMMAND_HELP[command], "")


def test_top_level_usage_help_and_errors_are_unchanged(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert _help_of(capsys, "--help") == (0, TOP_HELP, "")
    assert run_cli(capsys) == (1, "", "error: the following arguments are required: command\n")
    assert run_cli(capsys, "bogus") == (
        1, "", f"error: argument command: invalid choice: 'bogus' (choose from {CHOICES})\n"
    )
    assert run_cli(capsys, "--", "invariants", "U(3)") == (
        1, "", f"error: argument command: invalid choice: '--' (choose from {CHOICES})\n"
    )


def test_main_without_arguments_reads_sys_argv(monkeypatch, capsys):
    # as the console script calls it
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "argv", ["hklat", "--help"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert (exc.value.code, capsys.readouterr().out) == (0, TOP_HELP)
    monkeypatch.setattr(sys, "argv", ["hklat", "invariants", "U(3)"])
    code = main()
    assert (code, capsys.readouterr().out) == run_cli(capsys, "invariants", "U(3)")[:2]


def test_expression_starting_with_a_minus_sign(capsys):
    # after `--`, or glued to its option with `=`; otherwise it reads as an option
    code, out, _ = run_cli(capsys, "invariants", "--", "-E8")
    assert (code, out.splitlines()[:3]) == (0, ["lattice: E8(-1)", "rank: 8", "signature: (8, 0)"])
    code, out, _ = run_cli(capsys, "embed", "--expr=-E8")
    assert (code, out) == (
        0, "S = E8(-1): signature (8, 0), p-elementary p=0, a=0\nembeds in U^3 + E8^2 + <-2>: no\n"
    )
    assert run_cli(capsys, "invariants", "-E8") == (
        1, "", "error: the following arguments are required: lattice\n"
    )
    assert run_cli(capsys, "embed", "--expr", "-E8") == (
        1, "", "error: argument --expr: expected one argument\n"
    )


def test_fresh_command_builds_only_its_own_parser():
    probe = (
        "import argparse, contextlib, io\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "from hklat.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['figures', '--which', '1', '--format', 'txt'])\n"
        "print(code, built)\n"
    )
    assert _fresh_python("-c", probe) == "0 ['hklat figures']\n"


def _arguments(parser):
    return [
        (a.option_strings, a.dest, a.nargs, a.type, a.choices, a.default, a.required, a.metavar)
        for a in parser._actions
    ]


def test_command_parsers_match_the_subparsers():
    # one declaration of each command's arguments serves both parsers
    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    assert list(subparsers) == list(COMMANDS)
    for name in COMMANDS:
        assert _arguments(_command_parser(name)) == _arguments(subparsers[name]), name
        assert _command_parser(name) is _command_parser(name)
