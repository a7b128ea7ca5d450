"""The CLI contract on drawn argv, for all seven commands.

Every input gets an answer or a typed rejection: `main` raises nothing but
argparse's `SystemExit` for `--help`, exits 0, 1 or 2, leaves stdout empty
and writes exactly one `error:` line on stderr when it rejects, and gives the
same bytes when run again.  The argv mix well-formed queries with twists,
`^0`, stray tokens, 5,000-digit integers, malformed Gram and census JSON and
out-of-range numbers.

Two answers are checked against independent routes, end to end through the
Gram-matrix elimination of `lattices`: the det and signature `invariants`
prints for a drawn even Gram matrix are sympy's det and Descartes' sign
counts on sympy's characteristic polynomial, and `embed` of a named lattice
on a changed basis prints the named lattice's answer below the line that
names S.  Derandomized, so tier-1 sees the same examples on every run.
"""

import contextlib
import io
import json
import os
import random
import re
import tempfile

import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hklat.cli import main
from hklat.lattices import realize
from hklat.tables import LATTICE_NAMES
from snf_oracle import mat_mul
from test_exact import _random_unimodular, _signature_by_descartes, transpose

# three 5,000-digit integers, beyond the 4,300 digits the interpreter converts
NINES, SEVENS, EIGHTS = ("9" * 5000, "7" * 5000, "8" * 5000)
# an integer the interpreter reads, but whose census is too long to write
LONG = "1" + "0" * 2500


def one_in(n):
    """True one time in n."""
    return st.sampled_from((True,) + (False,) * (n - 1))


def mostly(valid, odd):
    """A draw of `valid`, and one time in five of `odd`."""
    return one_in(5).flatmap(lambda flawed: odd if flawed else valid)


def numbers(low, high, *odd):
    """Integers in [low, high] as text, and one time in five an odd token."""
    return mostly(st.integers(low, high).map(str), st.sampled_from(odd))


ATOMS = ("U", "A1", "A2", "A4", "D4", "E6", "E7", "E8", "K3", "K7", "H5", "H13", "L17",
         "<2>", "<-2>", "<6>", "<-10>")
BAD_ATOMS = ("A0", "D3", "K5", "H7", "<3>", "<0>", "Q", "A" + EIGHTS, "K" + SEVENS,
             "<" + EIGHTS + ">")
TWISTS = ("", "(-1)", "(2)", "(3)", "(-5)", "(15)")
BAD_TWISTS = ("(0)", f"({SEVENS})", f"(-{NINES})")
POWERS = ("", "^1", "^2", "^3")
BAD_POWERS = ("^0", f"^{NINES}")
STRAY = ("+", " + + ", "(", ")", "^", "x", "\n", "-", "E8 E8", "")


def _term(atoms, twists, powers):
    return st.builds("".join, st.tuples(*map(st.sampled_from, (atoms, twists, powers))))


terms = mostly(
    st.one_of(_term(ATOMS, TWISTS, POWERS), _term(("E6*",), ("(3)", "(-3)"), POWERS),
              _term(("A4*",), ("(5)", "(-5)"), POWERS)),
    st.one_of(_term(BAD_ATOMS, TWISTS, POWERS), _term(ATOMS, BAD_TWISTS, POWERS),
              _term(ATOMS, TWISTS, BAD_POWERS), _term(("E6*", "A4*"), TWISTS, POWERS)),
)


@st.composite
def expressions(draw):
    parts = draw(st.lists(terms, min_size=1, max_size=3))
    if draw(one_in(4)):
        parts.insert(draw(st.integers(0, len(parts))), draw(st.sampled_from(STRAY)))
    return draw(st.sampled_from(("", "", "-", " "))) + " + ".join(parts)


# JSON tokens, written as text: json.dumps cannot write a 5,000-digit int
ODD_ENTRIES = ("true", "2.5", '"2"', "null", "[]", "Infinity", "2" + "0" * 5000)
ODD_COUNTS = ("-1", "1.5", "true", '"3"', "null", NINES, LONG)
ODD_PRIMES = ("-3", "2", "4", "23", "3.0", "true", '"3"', "null", "2305843009213693951",
              NINES)


@st.composite
def gram_json(draw):
    n = draw(st.integers(0, 3))
    cells = {}
    for i in range(n):  # symmetric with an even diagonal, and then flawed
        for j in range(i, n):
            x = draw(st.integers(-3, 3))
            cells[i, j] = cells[j, i] = str(2 * x if i == j else x)
    rows = [[cells[i, j] for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        row = rows[draw(st.integers(0, n - 1))]
        flaw = draw(st.sampled_from(("entry", "entry", "odd", "drop", "add")))
        k = draw(st.integers(0, len(row) - 1)) if row else 0
        if flaw == "entry" and row:
            row[k] = draw(st.sampled_from(ODD_ENTRIES))
        elif flaw == "odd" and row:
            row[k] = str(int(row[k]) + 1) if row[k].lstrip("-").isdigit() else row[k]
        elif flaw == "drop" and row:
            del row[k]
        elif flaw == "add":
            row.append("0")
    gram = "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"
    text = draw(mostly(st.sampled_from(('{"gram": %s}', '{"gram": %s, "name": "U"}')),
                       st.sampled_from(('{"gram": %s, "name": 5}', '{"grm": %s}', "%s",
                                        '{"gram": %s', '{"gram": %s, "name": "Q"}')))) % gram
    return b"\xff" + text.encode() if draw(one_in(10)) else text.encode()


@st.composite
def locus_json(draw):
    p = draw(st.sampled_from((3, 5, 7, 11, 13, 17, 19)))
    fields = {
        "p": str(p),
        "k": str(draw(st.integers(0, 6))),
        "n": "[" + ", ".join(str(draw(st.integers(0, 6))) for _ in range(p - 1)) + "]",
        "genus_curve": str(draw(st.integers(0, 4))),
    }
    odd = {
        "p": st.sampled_from(ODD_PRIMES),
        "k": st.sampled_from(ODD_COUNTS),
        "n": st.sampled_from(("5", "null", "[0]", "[[]]", f"[{LONG}" + ", 0" * (p - 2) + "]",
                              f"[{NINES}" + ", 0" * (p - 2) + "]", "[1.5" + ", 0" * (p - 2) + "]")),
        "genus_curve": st.sampled_from(ODD_COUNTS),
    }
    for key in draw(st.lists(st.sampled_from(sorted(fields)), max_size=2, unique=True)):
        fields[key] = draw(odd[key])
    keys = [key for key in sorted(fields) if not draw(one_in(4 if key != "p" else 10))]
    text = "{" + ", ".join(f'"{key}": {fields[key]}' for key in keys) + "}"
    return (text[:-1] if draw(one_in(10)) else text).encode()


@st.composite
def invocations(draw):
    """(argv, files): argv with "{dir}" for the scratch directory, and the
    files to write there first."""
    command = draw(st.sampled_from((
        "invariants", "invariants", "embed", "embed", "embed", "tables", "figures",
        "involution", "census", "local-actions", "help", "none",
    )))
    files = {}
    if command in ("invariants", "embed"):
        if draw(st.booleans()):
            files["lattice.json"] = draw(gram_json())
            lattice = "{dir}/lattice.json"
        else:
            lattice = draw(expressions())
        if command == "invariants":
            return ["invariants", "--", lattice], files
        return ["embed", f"--expr={lattice}"], files
    if command == "census":
        files["locus.json"] = draw(locus_json())
        argv = ["census", "{dir}/locus.json"]
        if draw(st.booleans()):
            argv += ["--check", draw(mostly(
                st.sampled_from(("3,5,5", "3,1,1", "13,2,1", "7,4,3", "19,1,1")),
                st.sampled_from(("3,5", "x", "3,5,-1", "", f"3,5,{NINES}")),
            ))]
        return argv, files
    if command == "local-actions":
        prime = draw(numbers(3, 23, "-5", "2", "4", "29", "10000000000000000051", NINES, "x"))
        return ["local-actions", "--prime", prime], files
    if command == "involution":
        argv = ["involution"]
        for option, values in (
            ("--r", numbers(1, 22, "0", "-4", "100", NINES, "x")),
            ("--a", numbers(0, 12, "-1", "100", NINES)),
            ("--delta", numbers(0, 1, "2", "x")),
        ):
            if not draw(one_in(10)):
                argv += [option, draw(values)]
        return argv, files
    if command in ("tables", "figures"):
        argv = [command]
        if command == "tables":
            if draw(st.booleans()):
                argv.append("--all")
            if draw(st.booleans()):
                argv += ["--prime", draw(numbers(
                    3, 19, "-1", "4", "23", "x", "10000000000000000051", NINES
                ))]
            formats = ("md", "csv", "json", "xml")
        else:
            if not draw(one_in(10)):
                argv += ["--which", draw(numbers(1, 2, "0", "3", "x"))]
            formats = ("txt", "json", "md")
        if draw(st.booleans()):
            argv += ["--format", draw(st.sampled_from(formats))]
        if draw(st.booleans()):
            argv += ["--out", "{dir}/out"]
        return argv, files
    if command == "help":
        return draw(st.sampled_from((
            ["--help"], ["-h"], ["invariants", "--help"], ["census", "-h"], ["tables", "--help"],
        ))), files
    return draw(st.sampled_from(([], ["bogus"], ["--", "invariants", "U"], ["--bogus"]))), files


def _run(argv):
    """(exit code, stdout, stderr, --out bytes or None) of one call of main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert {"--help", "-h"} & set(argv), argv
            code = exc.code
    target = argv[argv.index("--out") + 1] if "--out" in argv else None
    written = None
    if target and os.path.exists(target):
        with open(target, "rb") as f:
            written = f.read()
        os.remove(target)
    return code, out.getvalue(), err.getvalue(), written


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_argv_gets_an_answer_or_one_typed_error_line(invocation):
    template, files = invocation
    with tempfile.TemporaryDirectory() as scratch:
        for name, data in files.items():
            with open(os.path.join(scratch, name), "wb") as f:
                f.write(data)
        argv = [arg.replace("{dir}", scratch) for arg in template]
        first = _run(argv)
        code, out, err, written = first
        assert code in (0, 1, 2)
        if err:
            assert code in (1, 2) and out == "" and written is None
            assert re.fullmatch(r"error: [^\n]*\n", err), err[:200]
        elif "--out" in argv and code == 0:
            assert out == "" and written.endswith(b"\n")
        else:
            assert code in (0, 2) and out.endswith("\n")
        assert _run(argv) == first


@st.composite
def even_grams(draw):
    """Symmetric integer matrices of rank 1 to 5 with an even diagonal, some
    conjugated by a unimodular matrix."""
    n = draw(st.integers(1, 5))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = draw(st.integers(-4, 4))
            m[i][j] = m[j][i] = 2 * x if i == j else x
    if draw(st.booleans()):
        p = _random_unimodular(n, random.Random(draw(st.integers(0, 2**32))))
        m = mat_mul(mat_mul(transpose(p), m), p)
    return [list(row) for row in m]


def _answer_on_file(argv, gram):
    """`_run` of argv with "{file}" standing for a JSON file holding gram."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "gram.json")
        with open(path, "w") as f:
            json.dump({"gram": gram}, f)
        return _run([arg.replace("{file}", path) for arg in argv])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(even_grams())
def test_invariants_prints_sympys_det_and_descartes_signature(gram):
    code, out, err, _ = _answer_on_file(["invariants", "{file}"], gram)
    det = sympy.Matrix(gram).det()
    if det == 0:
        assert (code, out, err) == (2, "", "error: lattice is degenerate\n")
        return
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert f"det: {det}" in lines
    assert "signature: ({}, {})".format(*_signature_by_descartes(gram)) in lines


NAMED = sorted({name for pair in LATTICE_NAMES.values() for name in pair}
               | {"U(3)", "A2 + U(3)", "E6", "K7", "H5", "U + <-2>", "A2^2", "E8(-1)", "A1"})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(NAMED), st.integers(0, 2**32))
def test_embed_on_a_changed_basis_answers_as_the_named_lattice(name, seed):
    named = _run(["embed", "--expr", name])
    gram = realize(name).gram
    p = _random_unimodular(len(gram), random.Random(seed))
    moved = _answer_on_file(["embed", "--expr", "{file}"],
                            [list(row) for row in mat_mul(mat_mul(transpose(p), gram), p)])
    # the first line names S ("rank-n lattice" for the file); all that
    # follows the name, the lines below it included, is the named answer
    assert moved[0] == named[0] and moved[2] == named[2]
    assert moved[1].partition(":")[2] == named[1].partition(":")[2]
