"""Which lines of the library does tier-1 leave unreached, and why?

Run from anywhere, with no options: ``python tests/reachability.py``.  It
runs tier-1 (``pytest tests --hypothesis-seed=0``) in this process under a
``sys.settrace`` line tracer that follows the frames of ``src/hklat`` only,
then lists every line of ``src/hklat`` that starts a statement, compiles to
bytecode and never ran.  Each such line is keyed by its module, its function
and its source text, so that moving code changes nothing, and must be named
by an entry of `UNREACHED` below, which gives the reason it stays.

Exit status: pytest's own when tier-1 fails; 1 when a line is unreached that
no entry names, or an entry names no unreached line (the line was deleted or
a test now reaches it: drop the entry); 0 otherwise.  Processes that the
tests start are not traced.  The keys are those of CPython 3.11 bytecode.
pytest does not collect this file, as its name does not start with `test_`.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LIBRARY = os.path.join(SRC, "hklat")

# (module, function, source text, reason): the library lines tier-1 does not
# reach.  A function is its qualified name, "<module>" at the top level.
UNREACHED = (
    ("classify", "LatticeInvariants.__eq__", "return NotImplemented",
     "equality protocol: nothing compares a genus with a value of another type"),
    ("fqf", "FiniteQuadraticForm.__eq__", "return NotImplemented",
     "equality protocol: nothing compares a form with a value of another type"),
    ("classify", "genus_unique",
     'raise InvalidParameter("test applies to indefinite lattices (rank >= 2)")',
     "guard of a public function: embed_in_L calls it for an indefinite T of rank >= 2"),
    ("cli", "main", "command = COMMANDS[args.command]",
     "unreachable on 3.11: argparse rejects every argv whose first word is no command"),
    ("cli", "<module>", "sys.exit(main())",
     "runs only as `python -m hklat.cli`, in processes that tests start"),
    ("fqf", "legendre", "return 0",
     "guard of a public function: every caller passes a unit mod p"),
    ("involutions", "two_elementary_exists", "return False",
     "a delta other than 0 and 1: the CLI's --delta and the chart sweep take 0 and 1"),
    ("involutions", "classify_involution_embeddings",
     'raise InvalidParameter("T must be hyperbolic of signature (1, r-1)")',
     "a T with s+ != 1: the CLI and the chart sweep build T of signature (1, r - 1)"),
    ("lattices", "_atom_base_gram", 'raise InvalidParameter(f"unknown atom {atom!r}")',
     "unreachable: parse_expr admits catalog atoms only, and each has a branch above"),
)


def executable_lines(path: str) -> dict[int, tuple[str, str]]:
    """line -> (function, source text) for each line of the file that starts
    a statement and carries bytecode of the function it belongs to."""
    with open(path, encoding="utf-8") as f:
        source = f.read()
    starts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    owner: dict[int, str] = {}

    def walk(code: types.CodeType, name: str) -> None:
        for _, _, line in code.co_lines():
            if line is not None:
                owner[line] = name
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, const.co_qualname)

    walk(compile(source, path, "exec"), "<module>")
    text = source.splitlines()
    return {n: (owner[n], text[n - 1].strip()) for n in sorted(starts & owner.keys())}


def run_traced() -> tuple[int, dict[str, set[int]]]:
    """Tier-1's exit code and the lines run in each library file."""
    import pytest

    reached: dict[str, set[int]] = {}
    tracers: dict[str, object] = {}

    def global_trace(frame, event, arg):
        path = frame.f_code.co_filename
        local = tracers.get(path)
        if local is None:
            if not path.startswith(LIBRARY + os.sep):
                tracers[path] = False
                return None
            add = reached.setdefault(path, set()).add

            def local(frame, event, arg):
                add(frame.f_lineno)
                return local

            tracers[path] = local
        elif local is False:
            return None
        return local(frame, event, arg)

    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        code = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
             "--hypothesis-seed=0", "tests"]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    loaded = sys.modules.get("hklat")
    if loaded is None or not loaded.__file__.startswith(LIBRARY + os.sep):
        raise SystemExit(f"tier-1 did not load hklat from {LIBRARY}")
    return int(code), reached


def main() -> int:
    code, reached = run_traced()
    if code:
        print(f"reachability: tier-1 failed (exit {code})")
        return code
    unreached: dict[tuple[str, str, str], list[int]] = {}
    for name in sorted(os.listdir(LIBRARY)):
        if name.endswith(".py"):
            path = os.path.join(LIBRARY, name)
            ran = reached.get(path, set())
            for line, (function, text) in executable_lines(path).items():
                if line not in ran:
                    unreached.setdefault((name[:-3], function, text), []).append(line)
    found = Counter({key: len(lines) for key, lines in unreached.items()})
    listed = Counter(entry[:3] for entry in UNREACHED)
    new, stale = found - listed, listed - found
    for module, function, text in sorted(new):
        lines = ", ".join(map(str, unreached[module, function, text]))
        print(f"unreached, with no reason: {module}.py:{lines} {function}: {text}")
    for module, function, text in sorted(stale):
        print(f"listed, but not unreached: {module}.{function}: {text}")
    print(f"reachability: {found.total()} unreached library lines, {len(UNREACHED)} listed")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
