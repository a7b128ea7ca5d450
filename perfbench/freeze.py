"""Regenerate the frozen expected outputs under perfbench/expected/.

    python3 perfbench/freeze.py

Run once, at the commit that defines the benchmark; the files it writes are
the reference every later run is checked against, so rerunning it to make a
wrong answer pass defeats the benchmark.  Before writing it cross-checks
hklat against independent routes:

* determinant and invariant factors against sympy (Bareiss, Smith form);
* the signature against Descartes' rule on sympy's characteristic
  polynomial (exact for a symmetric matrix);
* the Gauss signature against Milgram: s+ - s- mod 8;
* for the ``queries`` pool, which the ``basis`` workload shares, that a
  changed-basis input prints the same basis-independent lines as its
  named item.

Ladder rungs that fail at the defining commit get their expected record from
these routes alone (delta by enumerating the 2-part of the sympy Smith form),
so a later fix is checked, not trusted.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(BENCH))
sys.path.insert(2, str(ROOT / "tests"))

from sympy import Matrix, ZZ, symbols  # noqa: E402
from sympy.matrices.normalforms import smith_normal_decomp  # noqa: E402

import workloads  # noqa: E402
from golden_data import TABLE_ROWS  # noqa: E402
from hklat.lattices import realize  # noqa: E402

# The catalog names of the acceptance suite's Milgram sweep.
CATALOG_NAMES = (
    "U", "U(2)", "U(3)", "U(5)", "U(7)", "U(11)", "U(13)", "U(17)", "U(19)",
    "A1", "A2", "A3", "A4", "A5", "A6", "A8", "A10", "A12", "A16", "A18",
    "D4", "D5", "D6", "D8", "E6", "E7", "E8", "E8(2)",
    "K7", "K11", "K19", "H5", "H13", "H17", "L17", "E6*(3)", "A4*(5)",
    "<2>", "<-2>", "<6>", "<-6>", "A2(-1)", "K11(-1)", "K19(-1)",
)

LOCAL_ACTION_PRIMES = ("3", "5", "7", "11", "13", "17", "19", "23")

LADDER_INVARIANTS = (
    "U(3)", "U(9)", "U(27)", "U(81)", "U(243)", "U(729)",
    "A2(3)", "A2(9)", "A2(27)", "A2(81)", "A2(243)",
    "A4(5)", "A6(7)", "E8(3)", "E8(5)",
    "E8(7)", "A10(5)", "<1000002>", "E8(101)",
)
LADDER_E4 = (
    "U(2)", "U(4)", "U(6)", "U(8)", "U(16)",
    "<-2>", "<-8>", "<-32>", "<-128>", "<-512>", "<-2048>", "<-8192>", "<-16384>",
    "U(2) + <-2>",
)
SMOKE_RUNGS = {"U(3)", "U(9)", "A2(3)", "E8(7)", "<1000002>", "U(2)", "U(4)", "<-8>", "U(2) + <-2>"}


# -- independent routes ------------------------------------------------------------

def oracle(gram) -> dict:
    """Invariants of an even Gram matrix by routes independent of hklat."""
    g = Matrix(gram)
    n = g.rows
    x = symbols("x")
    coeffs = [c for c in g.charpoly(x).all_coeffs() if c != 0]
    plus = sum(1 for a, b in zip(coeffs, coeffs[1:]) if a * b < 0)
    d, _, v = smith_normal_decomp(g, domain=ZZ)
    diag = [abs(int(d[i, i])) for i in range(n)]
    group = sorted(e for e in diag if e > 1)
    # delta: is q integral on the 2-part?  Generators v_i / 2^k_i.
    two_gens = []
    for i, e in enumerate(diag):
        k = (e & -e).bit_length() - 1 if e else 0
        if k:
            two_gens.append(([Fraction(int(v[r, i]), 2**k) for r in range(n)], 2**k))
    delta = 0
    for cs in product(*(range(order) for _, order in two_gens)):
        vec = [sum((c * h[r] for c, (h, _) in zip(cs, two_gens)), Fraction(0)) for r in range(n)]
        q = sum(vec[r] * gram[r][s] * vec[s] for r in range(n) for s in range(n))
        if q.denominator != 1:
            delta = 1
            break
    return {
        "rank": n,
        "signature": [plus, n - plus],
        "det": int(g.det(method="bareiss")),
        "group": group,
        "delta": delta,
        "gauss": (2 * plus - n) % 8,  # Milgram
    }


def run_cli(argv) -> dict:
    code, out = workloads.call(workloads.Op("cli", "", tuple(argv)))
    return {"code": code, "out": out}


def check_invariants_output(name: str, out: str, ref: dict) -> None:
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    group = "trivial" if not ref["group"] else " x ".join(f"Z/{e}" for e in ref["group"])
    assert lines["det"] == str(ref["det"]), name
    assert lines["discriminant group"] == group, name
    assert lines["signature"] == f"({ref['signature'][0]}, {ref['signature'][1]})", name
    assert lines["gauss signature (mod 8)"] == str(ref["gauss"]), name


# -- queries ------------------------------------------------------------------------

def census_items() -> dict:
    triples = {}
    for p, m, a, *_ in TABLE_ROWS:
        triples.setdefault(p, []).append(f"{p},{m},{a}")
    shapes = {3: ((0, 0), (0, 5), (2, 1), (3, 3)),
              5: ((0, 0, 0, 0), (1, 0, 2, 0), (0, 3, 0, 1)),
              7: ((0,) * 6, (1, 0, 0, 2, 0, 0))}
    items = {}
    for p, ns in shapes.items():
        for genus in (None, 1):
            for k in (0, 2):
                for n in ns:
                    locus = {"p": p, "k": k, "n": list(n)}
                    if genus is not None:
                        locus["genus_curve"] = genus
                    i = len(items)
                    check = triples[p][(i // 2) % len(triples[p])] if i % 2 == 0 else None
                    items[f"locus{i:02d}"] = {"locus": locus, "check": check}
    items["natural355"] = {"locus": {"p": 3, "k": 2, "n": [0, 5]}, "check": "3,5,5"}
    return items


def freeze_queries() -> dict:
    names = sorted({row[5] for row in TABLE_ROWS} | {row[6] for row in TABLE_ROWS}
                   | set(CATALOG_NAMES))
    data = {"lattices": {}, "invariants": {}, "embed": {}, "involution": {},
            "census": {}, "local-actions": {}}
    rng = random.Random(0)
    for name in names:
        gram = [list(row) for row in realize(name).gram]
        data["lattices"][name] = {"rank": len(gram), "gram": gram}
        inv = run_cli(["invariants", name])
        assert inv["code"] == 0, (name, inv)
        check_invariants_output(name, inv["out"], oracle(gram))
        data["invariants"][name] = inv
        data["embed"][name] = run_cli(["embed", "--expr", name])
        if len(gram) >= 2:
            check_basis_independence(name, gram, data, rng)
        print(f"{name}: rank {len(gram)}, embed exit {data['embed'][name]['code']}", flush=True)
    for r in range(1, 22):
        for a in range(r + 1):
            for delta in (0, 1):
                data["involution"][f"{r},{a},{delta}"] = run_cli(
                    ["involution", "--r", str(r), "--a", str(a), "--delta", str(delta)])
    loci_dir = workloads.OUT / "loci"
    loci_dir.mkdir(parents=True, exist_ok=True)
    for key, item in census_items().items():
        path = loci_dir / f"{key}.json"
        path.write_text(json.dumps(item["locus"]))
        argv = ["census", str(path)] + (["--check", item["check"]] if item["check"] else [])
        data["census"][key] = {**item, **run_cli(argv)}
    for p in LOCAL_ACTION_PRIMES:
        data["local-actions"][p] = run_cli(["local-actions", "--prime", p])
    return data


def check_basis_independence(name, gram, data, rng) -> None:
    """A shallow change of basis must print the same basis-independent lines."""
    path = workloads.OUT / "basis" / "freeze.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    moved = workloads.change_basis(gram, len(gram) // 2, rng)
    path.write_text(json.dumps({"gram": moved}))
    for cmd, argv in (("invariants", ["invariants", str(path)]),
                      ("embed", ["embed", "--expr", str(path)])):
        op = workloads.Op("cli", name, tuple(argv), {
            "code": data[cmd][name]["code"],
            "out": workloads.basis_free(cmd, data[cmd][name]["out"]),
        }, basis_changed=True)
        outcome = workloads.execute(op, 5.0)  # raises WrongAnswer on a mismatch
        if outcome.failure:
            print(f"  {name}: changed basis {cmd} {outcome.failure}", flush=True)


# -- ladder -------------------------------------------------------------------------

def freeze_ladder() -> dict:
    rungs = []
    for kind, names in (("invariants", LADDER_INVARIANTS), ("e4", LADDER_E4)):
        for name in names:
            gram = [list(row) for row in realize(name).gram]
            ref = oracle(gram)
            # Every e4 rung is the discriminant form of an existing lattice.
            expect = ref if kind == "invariants" else [True, None]
            op = workloads.Op(kind, name, (name,), expect)
            try:
                outcome = workloads.execute(op, workloads.DEADLINE_S["ladder"])  # raises WrongAnswer
                status = outcome.failure or "ok"
            except workloads.WrongAnswer as exc:
                raise SystemExit(f"hklat disagrees with the independent routes: {exc}")
            print(f"{kind} {name}: {status} ({outcome.elapsed:.3f} s)", flush=True)
            rungs.append({"kind": kind, "name": name, "expect": expect,
                          "smoke": name in SMOKE_RUNGS, "status_at_freeze": status})
    return {"rungs": rungs}


def dump(data: dict) -> str:
    """JSON with one line per item, so that a changed expectation is a small diff."""
    parts = []
    for key, value in sorted(data.items()):
        if isinstance(value, dict):
            items = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                               for k, v in sorted(value.items()))
            parts.append(f" {json.dumps(key)}: {{\n{items}\n }}")
        elif isinstance(value, list):
            items = ",\n".join(f"  {json.dumps(v, sort_keys=True)}" for v in value)
            parts.append(f" {json.dumps(key)}: [\n{items}\n ]")
        else:
            parts.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> None:
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True, timeout=30).stdout.strip()
    workloads.EXPECTED.mkdir(exist_ok=True)
    for workload, build in (("ladder", freeze_ladder), ("queries", freeze_queries)):
        data = {"frozen_at": commit, **build()}
        (workloads.EXPECTED / f"{workload}.json").write_text(dump(data))


if __name__ == "__main__":
    main()
