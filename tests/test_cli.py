import json
import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hklat
from hklat import exact, fqf, lattices
from hklat.cli import COMMANDS, _command_parser, _ratio_text, build_parser, main
from hklat.errors import InvalidParameter
from hklat.lattices import realize
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


def test_tables_requires_prime_or_all(capsys):
    code, _, err = run_cli(capsys, "tables", "--format", "csv")
    assert code == 1


def test_figures_golden(capsys):
    for which in (1, 2):
        code, out, _ = run_cli(capsys, "figures", "--which", str(which), "--format", "json")
        assert code == 0
        assert out.rstrip("\n") == (GOLDEN / f"figure{which}.json").read_text().rstrip("\n")
        code, out, _ = run_cli(capsys, "figures", "--which", str(which), "--format", "txt")
        assert out.rstrip("\n") == (GOLDEN / f"figure{which}.txt").read_text().rstrip("\n")


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
    "float.json": '{"gram": [[2.9, 1], [1, 2]]}',
    "bool.json": '{"gram": [[true]]}',
    "string.json": '{"gram": [["2", "1"], ["1", "2"]]}',
    "float_p.json": '{"p": 3.7, "k": 2, "n": [0, 5]}',
    "float_n.json": '{"p": 3, "k": 2, "n": [0, 5.0]}',
    "bool_k.json": '{"p": 3, "k": true, "n": [0, 5]}',
    "scalar_n.json": '{"p": 3, "k": 0, "n": 5}',
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
    (("census", "locus.json", "--check", "3,5"), 1),
    (("invariants", "float.json"), 1),
    (("embed", "--expr", "float.json"), 1),
    (("invariants", "bool.json"), 1),
    (("invariants", "string.json"), 1),
    (("census", "float_p.json"), 1),
    (("census", "float_n.json"), 1),
    (("census", "bool_k.json"), 1),
    (("census", "scalar_n.json"), 1),
    (("tables", "--format", "xml", "--all"), 1),
    (("figures", "--which", "3"), 1),
    (("involution", "--r", "2", "--a", "2", "--delta", "5"), 1),
    (("involution", "--r", "-4", "--a", "0", "--delta", "0"), 1),
    (("involution", "--r", "0", "--a", "0", "--delta", "1"), 1),
    (("involution", "--r", "2", "--a", "-1", "--delta", "1"), 1),
    (("embed",), 1),
    (("bogus",), 1),
    (("invariants", "odd.json"), 2),
]


@pytest.mark.parametrize(
    "argv, expected_code", FAILURES, ids=[" ".join(argv) for argv, _ in FAILURES]
)
def test_failures_exit_typed_with_empty_stdout(tmp_path, monkeypatch, capsys, argv, expected_code):
    monkeypatch.chdir(tmp_path)
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (expected_code, "")
    assert err.startswith("error: ")


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


def test_warm_embed_calls_jordan_blocks_zero_times(capsys, monkeypatch):
    # S's atoms were split by the first run and keep their splittings;
    # q_T = (-q_S) + q_L inherits them through neg and dsum, so neither the
    # existence test nor recognize splits anything
    argv = ("embed", "--expr", "U^2 + E8^2 + A2")
    run_cli(capsys, *argv)
    split = []
    jordan_blocks = fqf.jordan_blocks
    monkeypatch.setattr(fqf, "jordan_blocks", lambda part, p: split.append(p) or jordan_blocks(part, p))
    code, out, _ = run_cli(capsys, *argv)
    assert (code, "orthogonal class: <6>\n" in out) == (0, True)
    assert split == []


class DeadlineExceeded(Exception):
    pass


def _past_deadline(signum, frame):
    raise DeadlineExceeded


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
    previous = signal.signal(signal.SIGALRM, _past_deadline)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        code, out, err = run_cli(capsys, "invariants", name)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, err) == (0, "")
    s_plus, s_minus = realize(name).signature()
    assert f"\ngauss signature (mod 8): {(s_plus - s_minus) % 8}\n" in out


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
    assert after == "True " + repr(["hklat.fixedlocus", "hklat.involutions", "hklat.tables"])


CORE = ("errors", "exact", "fqf", "lattices")

# The layers each fresh command loads besides `cli`.
COMMAND_LAYERS = {
    "invariants": (("invariants", "U(3)"), (*CORE, "classify")),
    "tables": (("tables", "--prime", "19", "--format", "csv"), (*CORE, "classify", "tables")),
    "figures": (("figures", "--which", "1", "--format", "txt"), ("errors", "involutions")),
    "embed": (("embed", "--expr", "U(3)"), (*CORE, "classify")),
    "involution": (
        ("involution", "--r", "10", "--a", "4", "--delta", "1"), ("errors", "involutions")
    ),
    "census": (("census", "LOCUS"), ("errors", "exact", "fixedlocus")),
    "census-check": (
        ("census", "LOCUS", "--check", "3,5,5"),
        (*CORE, "classify", "fixedlocus", "tables"),
    ),
    "local-actions": (("local-actions", "--prime", "7"), ("errors", "exact", "fixedlocus")),
}


def test_command_layer_table_covers_every_command():
    assert {argv[0] for argv, _ in COMMAND_LAYERS.values()} == set(COMMANDS)


@pytest.mark.parametrize("argv, layers", COMMAND_LAYERS.values(), ids=COMMAND_LAYERS)
def test_fresh_command_loads_only_the_layers_it_runs(argv, layers, tmp_path):
    locus = tmp_path / "locus.json"
    locus.write_text(json.dumps({"p": 3, "k": 2, "n": [0, 5]}))
    argv = [str(locus) if arg == "LOCUS" else arg for arg in argv]
    probe = (
        "import contextlib, io, sys, types\n"
        "from hklat.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        f"print(code, {UNLOADED})\n"
    )
    unloaded = [f"hklat.{layer}" for layer in LAYERS if layer not in layers]
    assert _fresh_python("-c", probe) == f"0 {unloaded!r}\n"


def test_error_raised_in_a_lazy_layer_exits_typed_with_empty_stdout():
    # `tables` rejects the prime inside hklat.tables, loaded on first use
    proc = _run_fresh("-m", "hklat.cli", "tables", "--prime", "4")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == ["error: unsupported prime 4"]


def test_invariants_prints_values_as_fractions_print_them():
    for n in range(1, 401):
        for v in range(2 * n):
            assert _ratio_text(v, n) == str(Fraction(v, n)), (v, n)


def test_one_parser_serves_a_session(capsys):
    assert build_parser() is build_parser()
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
    # a realized lattice multiplies its atoms' determinants: none on its full
    # Gram matrix (unless it is one atom), and one per atom per process
    gram = realize(name).gram
    atoms = {lattices.atom_data(atom, t).gram for atom, t, _ in lattices.parse_expr(name).summands}
    real_det = exact.det_exact
    grams = []

    def counting_det(m):
        grams.append(m)
        return real_det(m)

    for module in (exact, lattices):
        monkeypatch.setattr(module, "det_exact", counting_det)
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

    snf = counting(exact.smith_normal_form, "smith_normal_form")
    for module in (exact, lattices):
        monkeypatch.setattr(module, "smith_normal_form", snf)
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
