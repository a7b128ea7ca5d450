"""Inputs, execution and output checks of the four hklat benchmark workloads.

``paper``   the eight artefacts of the paper, each command in a fresh
            interpreter, diffed byte for byte against ``tests/golden/``.
``queries`` a seeded stream of CLI commands on named inputs in one warm
            session.
``basis``   the same session's lattice queries on Gram matrices after a
            random unimodular change of basis, including depths at which
            the Smith normal form runs away at the defining commit.
``ladder``  library calls on lattices whose discriminant group grows
            geometrically, including rungs that fail at the defining commit.

Every operation runs under a per-operation deadline.  A failure (deadline,
exception, unexpected exit code) is recorded with its kind; a wrong answer
raises ``WrongAnswer`` and aborts the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from child import CALIBRATION_TAG, PEAK_RSS_TAG
from hklat import cli, fqf, lattices

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = ROOT / "tests" / "golden"
EXPECTED = BENCH / "expected"
OUT = BENCH / "out"

# Per-operation deadlines in seconds (BENCHMARK.json states those of the
# workloads it lists).  Each sits in a wide gap of the cost distribution
# measured at the defining commit: a named query finishes within 0.17 s; a
# changed-basis query either finishes within 0.23 s or runs away past 20 s;
# the slowest ladder rung that completes (the U(8) witness search) takes
# 2-4.5 s; a paper command takes about 0.4 s.
DEADLINE_S = {"paper": 30.0, "queries": 5.0, "basis": 0.3, "ladder": 8.0}

# The latency percentile reported as the tail: the highest of p75, p90, p95,
# p99 and p99.9 with at least ten samples beyond it in a 40-second run at the
# defining commit.  It is fixed per workload, so that a faster or slower
# program moves the tail's value and not its definition.
TAIL_PCT = {"paper": 90, "queries": 99, "basis": 95, "ladder": 75}

# The paper's artefacts: CLI arguments and the golden file they must equal.
PAPER_COMMANDS = (
    (("tables", "--all", "--format", "md"), "tables_all.md"),
    (("tables", "--all", "--format", "csv"), "tables_all.csv"),
    (("tables", "--all", "--format", "json"), "tables_all.json"),
    (("tables", "--prime", "19", "--format", "csv"), "table_p19.csv"),
    (("figures", "--which", "1", "--format", "txt"), "figure1.txt"),
    (("figures", "--which", "1", "--format", "json"), "figure1.json"),
    (("figures", "--which", "2", "--format", "txt"), "figure2.txt"),
    (("figures", "--which", "2", "--format", "json"), "figure2.json"),
)

# Rank bands and basis depths (elementary moves per unit of rank) of the
# changed-basis queries: one query per (band, depth) cell in every deck, so
# each run carries the same mix while the seed draws lattice and moves.
RANK_BANDS = ((2, 8), (9, 16), (17, 22))
BASIS_DEPTHS = (("invariants", 1), ("embed", 2))


class WrongAnswer(Exception):
    """An operation completed with output that differs from the expected one."""


class DeadlineExceeded(BaseException):
    """Raised by the interval timer when an operation passes its deadline."""


@dataclass
class Op:
    """One operation of a workload: what to run and what it must produce."""

    kind: str  # "paper", "cli", "invariants", "e4"
    label: str
    args: tuple = ()
    expect: object = None
    basis_changed: bool = False


@dataclass
class Outcome:
    elapsed: float
    failure: str | None = None  # None on success, else the failure kind
    detail: str = ""
    child_rss_mb: float = 0.0  # peak memory of the child process, if any
    speed: float | None = None  # the host's speed next to it (see calibrate.py)


# -- loading -------------------------------------------------------------------

def load_expected(workload: str) -> dict:
    """The frozen expected outputs of a workload (golden bytes for ``paper``)."""
    if workload == "paper":
        return {name: (GOLDEN / name).read_bytes() for _, name in PAPER_COMMANDS}
    pool = "ladder" if workload == "ladder" else "queries"  # basis draws from the queries pool
    data = json.loads((EXPECTED / f"{pool}.json").read_text())
    if workload in ("queries", "basis"):
        OUT.joinpath("loci").mkdir(parents=True, exist_ok=True)
        for key, item in data["census"].items():
            (OUT / "loci" / f"{key}.json").write_text(json.dumps(item["locus"]))
    return data


# -- generation ------------------------------------------------------------------

def blocks(workload: str, rng: random.Random, expected: dict, smoke: bool = False):
    """Endless stream of operation blocks: paper cycles, queries or basis
    decks, or ladder cycles.  Every block of a workload has the same
    composition."""
    if workload == "paper":
        while True:
            ops = [Op("paper", f"{' '.join(argv)} (golden {name})", argv, expected[name])
                   for argv, name in PAPER_COMMANDS]
            rng.shuffle(ops)
            yield ops
    elif workload == "ladder":
        while True:
            ops = [Op(r["kind"], f"{r['kind']} {r['name']}", (r["name"],), r["expect"])
                   for r in expected["rungs"] if r["smoke"] or not smoke]
            rng.shuffle(ops)
            yield ops
    elif workload == "basis":
        yield from _basis_decks(rng, expected)
    else:
        yield from _queries_decks(rng, expected)


def _bag(rng: random.Random, items):
    """Draw without replacement from a reshuffled bag, so that a run covers
    its pool evenly."""
    items = sorted(items)
    while True:
        rng.shuffle(items)
        yield from items


def _queries_decks(rng: random.Random, d: dict):
    """Decks of ten queries in seeded order: 6 named lattice queries (one per
    command and rank tercile of the pool), 2 involutions, 1 census and 1
    local-actions.  Stratifying by rank, which drives the cost, keeps the mix
    of every run alike while the seed draws the items."""
    lats = d["lattices"]
    by_rank = sorted(lats, key=lambda n: (lats[n]["rank"], n))
    terciles = [by_rank[i * len(by_rank) // 3:(i + 1) * len(by_rank) // 3] for i in range(3)]
    named = {(cmd, i): _bag(rng, tercile)
             for cmd in ("invariants", "embed") for i, tercile in enumerate(terciles)}
    involutions, loci, primes = (_bag(rng, d[k]) for k in ("involution", "census", "local-actions"))
    while True:
        ops = []
        for cmd in ("invariants", "embed"):
            for tercile in range(3):
                name = next(named[cmd, tercile])
                argv = (cmd, name) if cmd == "invariants" else (cmd, "--expr", name)
                ops.append(Op("cli", " ".join(argv), argv, d[cmd][name]))
        for _ in range(2):
            key = next(involutions)
            r, a, delta = key.split(",")
            argv = ("involution", "--r", r, "--a", a, "--delta", delta)
            ops.append(Op("cli", " ".join(argv), argv, d["involution"][key]))
        key = next(loci)
        item = d["census"][key]
        argv = ("census", str(OUT / "loci" / f"{key}.json"))
        if item["check"]:
            argv += ("--check", item["check"])
        ops.append(Op("cli", f"census {key}", argv, item))
        p = next(primes)
        argv = ("local-actions", "--prime", p)
        ops.append(Op("cli", " ".join(argv), argv, d["local-actions"][p]))
        rng.shuffle(ops)
        yield ops


def _basis_decks(rng: random.Random, d: dict):
    """Decks of six changed-basis queries in seeded order, one per command
    and rank band; the seed draws the lattices and the basis moves."""
    lats = d["lattices"]
    changed = {
        (band, cmd): _bag(rng, [n for n in lats if band[0] <= lats[n]["rank"] <= band[1]])
        for band in RANK_BANDS for cmd, _ in BASIS_DEPTHS
    }
    deck = 0
    while True:
        ops = []
        for band in RANK_BANDS:
            for cmd, depth in BASIS_DEPTHS:
                name = next(changed[band, cmd])
                moves = depth * lats[name]["rank"]
                path = OUT / "basis" / f"d{deck}-{len(ops)}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps({"gram": change_basis(lats[name]["gram"], moves, rng)}))
                argv = (cmd, str(path)) if cmd == "invariants" else (cmd, "--expr", str(path))
                expect = {"code": d[cmd][name]["code"], "out": basis_free(cmd, d[cmd][name]["out"])}
                ops.append(Op("cli", f"{cmd} {name} after {moves} moves", argv, expect, True))
        rng.shuffle(ops)
        deck += 1
        yield ops


def change_basis(gram, moves: int, rng: random.Random) -> list[list[int]]:
    """Apply `moves` random elementary unimodular moves b_i += c*b_j (c = +-1)."""
    g = [list(row) for row in gram]
    n = len(g)
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        g[i] = [x + c * y for x, y in zip(g[i], g[j])]
        for row in g:
            row[i] += c * row[j]
    return g


def basis_free(cmd: str, out: str) -> str:
    """The lines of a command's output that do not depend on the basis."""
    lines = out.splitlines(keepends=True)
    if cmd == "invariants":
        return "".join(l for l in lines
                       if not l.startswith(("lattice:", "q on generators")))
    if lines:  # embed: "S = <name>: signature ..." names the input
        lines[0] = re.sub(r"^S = .*?: signature", "S: signature", lines[0])
    return "".join(lines)


# -- execution -------------------------------------------------------------------

@contextlib.contextmanager
def deadline(seconds: float):
    def fire(signum, frame):
        raise DeadlineExceeded

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def execute(op: Op, seconds: float, spans_path: str | None = None, op_ix: int = 0) -> Outcome:
    """Run one operation under a deadline and check its output."""
    if op.kind == "paper":
        return _run_paper(op, seconds, spans_path, op_ix)
    t0 = time.perf_counter()
    failure, detail = None, ""
    try:
        with deadline(seconds):
            result = call(op)
    except DeadlineExceeded:
        failure = "deadline"
    except Exception as exc:  # the session keeps running; the kind is recorded
        failure, detail = f"exception:{type(exc).__name__}", str(exc)[:200]
    elapsed = time.perf_counter() - t0
    if failure is None:
        failure, detail = check(op, result)
    return Outcome(elapsed, failure, detail)


def call(op: Op):
    """The result of one operation, without deadline or check."""
    # Calls go through module attributes so that an installed span recorder
    # sees them.
    if op.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(op.args))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()
    lat = lattices.realize(op.args[0])
    if op.kind == "invariants":
        data = lattices.discriminant_data(lat)
        s_plus, s_minus = lat.signature()
        return {
            "rank": lat.rank,
            "signature": [s_plus, s_minus],
            "det": lat.det(),
            "group": list(data.invariant_factors),
            "delta": fqf.delta_invariant(data.form),
            "gauss": fqf.form_invariants(data.form).signature_mod_8,
        }
    if op.kind == "e4":
        form = lattices.discriminant_data(lat).form
        ok, reason = fqf.even_lattice_exists_report(*lat.signature(), form)
        return [ok, reason]
    raise ValueError(f"unknown operation kind {op.kind!r}")


def check(op: Op, result) -> tuple[str | None, str]:
    """(failure kind, detail) of a completed call; raises WrongAnswer."""
    if op.kind != "cli":
        if result != op.expect:
            raise WrongAnswer(f"{op.label}: got {result!r}, expected {op.expect!r}")
        return None, ""
    code, out = result
    if op.basis_changed:
        out = basis_free(op.args[0], out)
    if code != op.expect["code"]:
        return f"exit:{code}" + ("+partial-stdout" if out else ""), out[-200:]
    if out != op.expect["out"]:
        raise WrongAnswer(f"{op.label}: output differs from the expected output\n"
                          f"--- got\n{out}--- expected\n{op.expect['out']}")
    return None, ""


def _run_paper(op: Op, seconds: float, spans_path: str | None, op_ix: int) -> Outcome:
    cmd = [sys.executable, str(BENCH / "child.py")]
    if spans_path:
        cmd += ["--spans", spans_path, "--op", str(op_ix)]
    cmd += ["--", *op.args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=seconds)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        elapsed = time.perf_counter() - t0
        return Outcome(elapsed, "deadline")
    elapsed = time.perf_counter() - t0
    err = proc.stderr.decode(errors="replace")
    rss = [float(line[len(PEAK_RSS_TAG):]) for line in err.splitlines()
           if line.startswith(PEAK_RSS_TAG)]
    # The child measured the host's speed around the command; the time that
    # took is not the command's.
    speed = None
    for line in err.splitlines():
        if line.startswith(CALIBRATION_TAG):
            spent, speed = map(float, line[len(CALIBRATION_TAG):].split())
            elapsed -= spent
    if proc.returncode != 0:
        kind = f"exit:{proc.returncode}" + ("+partial-stdout" if proc.stdout else "")
        return Outcome(elapsed, kind, err[-200:], max(rss, default=0.0), speed)
    if proc.stdout != op.expect:
        raise WrongAnswer(f"{op.label}: stdout differs from the golden file")
    return Outcome(elapsed, child_rss_mb=max(rss), speed=speed)


# -- warm-up ------------------------------------------------------------------------

def warm_up(workload: str) -> None:
    """Fixed named queries a warm session runs before it is ready."""
    if workload in ("queries", "basis"):
        locus = OUT / "loci" / "warmup.json"
        locus.parent.mkdir(parents=True, exist_ok=True)
        locus.write_text('{"p": 3, "k": 2, "n": [0, 5]}')
        argvs = (
            ("invariants", "U(3)"),
            ("embed", "--expr", "U^2 + E8^2 + A2"),
            ("involution", "--r", "2", "--a", "2", "--delta", "1"),
            ("census", str(locus), "--check", "3,5,5"),
            ("local-actions", "--prime", "7"),
        )
        for argv in argvs:
            call(Op("cli", "", argv))
    elif workload == "ladder":
        call(Op("invariants", "", ("U(3)",)))
        call(Op("e4", "", ("U(2)",)))
