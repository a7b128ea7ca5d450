"""Command-line front end.

Subcommands: invariants, tables, figures, embed, involution, census,
local-actions.  Each handler returns its whole answer and exit code as
`(text, code)`, and `main` alone writes the answer, in one write, ending in
one newline: to stdout, or with `--out FILE` (`tables`, `figures`) to the
file, always as UTF-8, so the file holds the bytes a UTF-8 stdout would.
An error leaves stdout empty; so does a stdout whose encoding cannot hold
the answer (the figures' marks under an ASCII locale) and an answer holding
an integer longer than Python writes in decimal (4,300 digits), which exit
1; the latter's one line names that cause.
Exit codes: 1 malformed input (usage errors such as an unknown option or
choice, bad parameters, unparsable expressions or JSON, unreadable files or
files that are not UTF-8 text), 2 a mathematical rejection (e.g. a Gram
matrix that is not an even lattice).  Every error prints one `error: ...`
line on stderr.  Two answers also exit 2, with the answer on stdout and
nothing on stderr: `involution` when no such 2-elementary lattice exists,
and `census --check` on a MISMATCH.  `tables` renders through
`tables.render`.  Output is deterministic.

Dispatch: `COMMANDS` is the one table of commands, each with its handler,
its one-line help and the function that declares its arguments.  `main`
looks its first argument up there and parses the rest with that command's
own parser, `hklat <name>`, built on first use and kept for the process; a
query never runs argparse over the other commands, and a fresh command
builds one parser.  Only when the first argument names no command (`hklat`,
`hklat --help`, an unknown word, `hklat -- ...`) does `main` use
`build_parser`, the whole CLI with every command as a subparser, built from
the same table on each such call and not kept, for its usage, help and
errors.  Both print the same help and errors for a command.  An expression
that starts with `-` reads as an option; pass it after `--`
(`invariants -- -E8`) or as `--expr=-E8`.

Loading: `cli` reads the other layers only through their modules
(`lattices.realize`, `fqf.form_invariants`), and every layer loads lazily
(see `hklat`), so importing `cli` loads `errors` alone and a command loads
the layers it runs.  L's name is the package's `AMBIENT`, so the help, the
usage errors and `involution` name L without loading `lattices`.  Files are
read and written with `open`, and a lattice argument is a JSON file when
`os.path.splitext` gives it the suffix `.json` (`X.JSON`, `.json` and
`x.json/` are expressions), so `cli` imports no `pathlib`.  `census`
writes its JSON from the census's own template (`Hilb2FixedLocus.as_json`),
so `json` is loaded only to read the locus file, and `local-actions` formats
each eigenvalue pattern's head once for its multiplicity rows.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Callable, NamedTuple

from . import AMBIENT, classify, fixedlocus, fqf, involutions, lattices, tables
from .errors import HklatError, InvalidParameter


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise InvalidParameter(f"{path} is not UTF-8 text: {exc}") from None


def _load_lattice(source: str) -> lattices.Lattice:
    if os.path.splitext(source)[1] == ".json":
        return lattices.lattice_from_json(_read(source))
    return lattices.realize(source)


def _cmd_invariants(args) -> tuple[str, int]:
    lat = _load_lattice(args.lattice)
    # Only the group and the values of q on generators depend on the
    # generators: they are printed on those of the Smith form of the full
    # Gram matrix, taken here also for a named lattice.  Every other line is
    # read off the genus, on the Jordan blocks of the blocks' forms.
    inv = classify.invariants_of(lat)
    data = lattices.discriminant_data(lat)
    form_inv = fqf.form_invariants(inv.form)
    p = inv.p
    if p == 0:
        elementary = "true for every p (unimodular, a = 0)"
    elif p is None:
        elementary = "false"
    else:
        elementary = f"true (p={p}, a={inv.a})"
    group = " x ".join(f"Z/{d}" for d in data.invariant_factors) or "trivial"
    level = math.lcm(*data.invariant_factors)
    values = ", ".join(_ratio_text(v, level) for v in data.q_values) or "-"
    return "\n".join((
        f"lattice: {lat.name()}",
        f"rank: {lat.rank}",
        f"signature: ({inv.s_plus}, {inv.s_minus})",
        f"det: {lat.det()}",
        f"discriminant group: {group}",
        f"q on generators (mod 2Z): {values}",
        f"p-elementary: {elementary}",
        f"delta (2-part): {form_inv.delta}",
        f"gauss signature (mod 8): {form_inv.signature_mod_8}",
    )), 0


def _ratio_text(v: int, n: int) -> str:
    """v/n in lowest terms, printed as str(fractions.Fraction(v, n)) prints it."""
    g = math.gcd(v, n)
    return str(v // g) if g == n else f"{v // g}/{n // g}"


def _cmd_tables(args) -> tuple[str, int]:
    if not args.all and args.prime is None:
        raise InvalidParameter("need --prime P or --all")
    primes = tables.SUPPORTED_PRIMES if args.all else (args.prime,)
    return tables.render(primes, args.format), 0


def _cmd_figures(args) -> tuple[str, int]:
    if args.format == "json":
        return involutions.figure_points_json(args.which), 0
    return involutions.figure_points_text(args.which), 0


def _cmd_embed(args) -> tuple[str, int]:
    lat = _load_lattice(args.expr)
    inv = classify.invariants_of(lat)
    report = classify.embed_in_L(inv)
    lines = [
        f"S = {lat.name()}: signature ({inv.s_plus}, {inv.s_minus}), "
        f"p-elementary p={inv.p}, a={inv.a}",
        f"embeds in {AMBIENT}: {'yes' if report.embeds else 'no'}",
    ]
    if report.embeds:
        t = report.orthogonal_invariants
        lines.append(f"orthogonal complement: signature ({t.s_plus}, {t.s_minus}), "
                     f"|A_T| = {t.form.order}")
        expr = lattices.recognize(t)
        if expr is not None:
            lines.append(f"orthogonal class: {expr}")
        lines.append(f"embedding unique: {'yes' if report.unique_embedding else 'no'}")
        if report.exception_flag:
            lines.append("complement unique in its genus (one-class certificate)")
        lines.append(f"complement embeds uniquely: "
                     f"{'yes' if report.t_unique_embedding else 'no'}")
    return "\n".join(lines), 0


def _cmd_involution(args) -> tuple[str, int]:
    if args.r < 1 or args.a < 0:
        raise InvalidParameter(f"need --r >= 1 and --a >= 0, got --r {args.r} --a {args.a}")
    t = involutions.TwoElemInvariants(1, args.r - 1, args.a, args.delta)
    if not involutions.two_elementary_exists(t):
        return (f"no even 2-elementary lattice with (r, a, delta) = "
                f"({args.r}, {args.a}, {args.delta}) and signature (1, {args.r - 1})"), 2
    classes = involutions.classify_involution_embeddings(t)
    if not classes:
        return f"no primitive embedding in {AMBIENT}", 0
    lines = []
    for cls in classes:
        s = cls.s_invariants
        lines.append(f"case {cls.case}: S has signature ({s.s_plus}, {s.s_minus}), "
                     f"a = {s.a}, delta = {s.delta}")
    return "\n".join(lines), 0


def _cmd_census(args) -> tuple[str, int]:
    locus = fixedlocus.k3_fixed_locus_from_json(_read(args.file))
    census = fixedlocus.hilb2_census(locus)
    lines = [census.as_json()]
    code = 0
    if args.check:
        try:
            p, m, a = (int(x) for x in args.check.split(","))
        except ValueError as exc:
            raise InvalidParameter(f"--check needs p,m,a: {exc}") from exc
        if p != locus.p:
            raise InvalidParameter(f"--check p = {p} is not the locus's p = {locus.p}")
        ok = fixedlocus.cross_check_totals(census.chi, census.h_star, p, m, a)
        lines.append(f"cross-check against ({p},{m},{a}): {'MATCH' if ok else 'MISMATCH'}")
        code = 0 if ok else 2
    return "\n".join(lines), code


def _cmd_local_actions(args) -> tuple[str, int]:
    lines = []
    exps = head = None
    for rec in fixedlocus.enumerate_local_actions(args.prime):
        if rec["eigenvalue_exponents"] != exps:  # a new pattern: its rows share the head
            exps = rec["eigenvalue_exponents"]
            extra = f" (i = {rec['i']})" if "i" in rec else ""
            eigenvalues = ", ".join(f"z^{e}" if e else "1" for e in exps)
            head = f"family {rec['family']}{extra}: eigenvalues ({eigenvalues}) multiplicities "
        lines.append(f"{head}{rec['multiplicities']} fixed-dim {rec['fixed_dim']}")
    return "\n".join(lines), 0


def _args_invariants(parser) -> None:
    parser.add_argument("lattice")


def _args_tables(parser) -> None:
    parser.add_argument("--prime", type=int)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--format", choices=("md", "csv", "json"), default="md")
    parser.add_argument("--out")


def _args_figures(parser) -> None:
    parser.add_argument("--which", type=int, choices=(1, 2), required=True)
    parser.add_argument("--format", choices=("json", "txt"), default="txt")
    parser.add_argument("--out")


def _args_embed(parser) -> None:
    parser.add_argument("--expr", required=True)


def _args_involution(parser) -> None:
    parser.add_argument("--r", type=int, required=True)
    parser.add_argument("--a", type=int, required=True)
    parser.add_argument("--delta", type=int, choices=(0, 1), required=True)


def _args_census(parser) -> None:
    parser.add_argument("file")
    parser.add_argument("--check", metavar="p,m,a")


def _args_local_actions(parser) -> None:
    parser.add_argument("--prime", type=int, required=True)


class _Command(NamedTuple):
    run: Callable[[argparse.Namespace], tuple[str, int]]  # (answer, exit code)
    help: str  # "{L}" stands for L's name, `hklat.AMBIENT`
    add_arguments: Callable[[argparse.ArgumentParser], None]


# The one table of commands, in the order `hklat --help` lists them.
COMMANDS = {
    "invariants": _Command(
        _cmd_invariants, "invariants of a lattice (expr or JSON file)", _args_invariants
    ),
    "tables": _Command(_cmd_tables, "classification tables", _args_tables),
    "figures": _Command(_cmd_figures, "order-2 embedding charts", _args_figures),
    "embed": _Command(_cmd_embed, "embedding report for S in {L}", _args_embed),
    "involution": _Command(
        _cmd_involution, "embedding classes of a 2-elementary T", _args_involution
    ),
    "census": _Command(_cmd_census, "Hilbert-square fixed-locus census", _args_census),
    "local-actions": _Command(
        _cmd_local_actions, "local eigenvalue patterns at fixed points", _args_local_actions
    ),
}


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise `InvalidParameter`, so that
    they exit 1 like any other malformed input; `--help` still exits 0."""

    def error(self, message):
        raise InvalidParameter(message)


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, `hklat <name>`, built on first use and kept
    for the process; its usage, help and errors are those of the subparser
    `build_parser` makes for the command."""
    parser = _Parser(prog=f"hklat {name}")
    COMMANDS[name].add_arguments(parser)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of the whole CLI, with every command as a subcommand.
    `main` builds it afresh each time its first argument names no command:
    the help, a usage error or a call after `--`, none of them a query."""
    parser = _Parser(
        prog="hklat",
        description="Even-lattice invariants and the prime-order "
        "non-symplectic automorphism classification for K3^[2]-type fourfolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        subparser = sub.add_parser(name, help=command.help.format(L=AMBIENT))
        command.add_arguments(subparser)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        command = COMMANDS.get(argv[0]) if argv else None
        if command is None:  # no command: the usage error or the help
            args = build_parser().parse_args(argv)
            command = COMMANDS[args.command]
        else:
            args = _command_parser(argv[0]).parse_args(argv[1:])
        text, code = command.run(args)
        if not text.endswith("\n"):
            text += "\n"
        if getattr(args, "out", None):
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
        return code
    except HklatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError) as exc:
        # a file not read or not written, an answer that stdout's encoding
        # cannot hold (UnicodeEncodeError), or one holding an integer longer
        # than the interpreter writes in decimal; its message for reading one
        # goes on "conversion: value has ..." and never gets here, as every
        # input integer is bounded where it is read
        if "integer string conversion;" in str(exc):
            exc = (f"the answer holds an integer of more than "
                   f"{sys.get_int_max_str_digits():,} digits")
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
