"""Admissible (p, m, a) triples and the classification tables.

A non-symplectic automorphism of odd prime order p on a K3^[2]-type fourfold
determines m and a with rank S = (p-1)m; the candidate triples are filtered by
the counting bounds, by existence of the p-elementary lattice S of signature
(2, (p-1)m - 2), and by existence of the orthogonal complement T inside
U^3 + E8^2 + <-2>.  S exists iff one of the two p-elementary forms of length a
passes fqf.even_lattice_exists_report; for a >= 1 their Gauss signatures
differ by 4, so at most one passes E2.  Each surviving row carries h^*, the
Euler characteristic of the fixed locus, the catalog names of S and T, and
uniqueness flags; h^* and chi are integer expressions.

Whether a natural automorphism (one induced from a K3 surface) realizes a
row is computed, by `natural_verdict`.  For p = 5 the fixed-locus formulas
are only valid for natural automorphisms, so that table keeps the rows whose
verdict is true and carries the natural_only flag.  The Fano tags are
geometric constructions that lattice data cannot decide, so they stay data.

`render(primes, fmt)` is the one way to print tables: markdown, CSV or JSON,
for one prime or several; a row's fields are its CSV columns and JSON keys.
"""

from __future__ import annotations

from typing import NamedTuple

from . import classify, fqf
from .errors import InvalidParameter, UnsupportedPrime

SUPPORTED_PRIMES = (3, 5, 7, 11, 13, 17, 19)


def h_star(p: int, m: int, a: int) -> int:
    """Total F_p Betti number of the fixed locus:
    324 - 2a(25-a) - (p-2)m(25-2a) + m((p-2)^2 m - p)/2.

    The half is exact: (p-2)^2 = p mod 2, so m((p-2)^2 m - p) = p·m(m-1)
    mod 2, which is even."""
    return (
        324
        - 2 * a * (25 - a)
        - (p - 2) * m * (25 - 2 * a)
        + m * ((p - 2) ** 2 * m - p) // 2
    )


def lefschetz_chi(p: int, m: int) -> int:
    """Euler characteristic of the fixed locus: 324 - (51/2)mp + (1/2)m^2 p^2
    = 324 + mp(mp - 51)/2.

    The half is exact: mp and mp - 51 have opposite parity, so their
    product is even."""
    return 324 + m * p * (m * p - 51) // 2


class AdmissibleTriple(NamedTuple):
    """One classification row; its fields, in order, are its CSV columns."""

    p: int
    m: int
    a: int
    chi: int
    h_star: int
    S: str
    T: str
    realized: str  # the realization tags joined by "+", "" for none
    s_unique_embedding: bool
    embedding_exception: bool
    t_unique_embedding: bool
    s_rank: int
    t_rank: int
    moduli_dim: int  # m - 1, the dimension of the deformation family (odd p)
    natural_only: bool
    no_known_realization: bool


# Catalog names of S and T per (p, m, a), in the classification's standard
# presentation (validated against the computed invariants by the test suite).
LATTICE_NAMES: dict[tuple[int, int, int], tuple[str, str]] = {
    (3, 11, 1): ("U^2 + E8^2 + A2", "<6>"),
    (3, 10, 0): ("U^2 + E8^2", "U + <-2>"),
    (3, 10, 2): ("U + U(3) + E8^2", "U(3) + <-2>"),
    (3, 9, 1): ("U^2 + E6 + E8", "U + A2 + <-2>"),
    (3, 9, 3): ("U + U(3) + E6 + E8", "U(3) + A2 + <-2>"),
    (3, 8, 2): ("U^2 + E6^2", "U + A2^2 + <-2>"),
    (3, 8, 4): ("U + U(3) + E6^2", "U(3) + A2^2 + <-2>"),
    (3, 8, 6): ("U^2 + A2^6", "<6> + E6*(3)"),
    (3, 7, 1): ("U^2 + A2 + E8", "U + E6 + <-2>"),
    (3, 7, 3): ("U + U(3) + A2 + E8", "U + A2^3 + <-2>"),
    (3, 7, 5): ("U^2 + A2^5", "U(3) + A2^3 + <-2>"),
    (3, 7, 7): ("U + U(3) + A2^5", "U(3) + E6*(3) + <-2>"),
    (3, 6, 0): ("U^2 + E8", "U + E8 + <-2>"),
    (3, 6, 2): ("U + U(3) + E8", "U + E6 + A2 + <-2>"),
    (3, 6, 4): ("U^2 + A2^4", "U + A2^4 + <-2>"),
    (3, 6, 6): ("U + U(3) + A2^4", "U(3) + A2^4 + <-2>"),
    (3, 5, 1): ("U^2 + E6", "U + E8 + A2 + <-2>"),
    (3, 5, 3): ("U + U(3) + E6", "U + A2^2 + E6 + <-2>"),
    (3, 5, 5): ("U + U(3) + A2^3", "U + A2^5 + <-2>"),
    (3, 4, 2): ("U^2 + A2^2", "U + E6^2 + <-2>"),
    (3, 4, 4): ("U + U(3) + A2^2", "U + E6 + A2^3 + <-2>"),
    (3, 3, 1): ("U^2 + A2", "U + E6 + E8 + <-2>"),
    (3, 3, 3): ("U + U(3) + A2", "U + E6^2 + A2 + <-2>"),
    (3, 2, 0): ("U^2", "U + E8^2 + <-2>"),
    (3, 2, 2): ("U + U(3)", "U + E6 + E8 + A2 + <-2>"),
    (3, 1, 1): ("A2(-1)", "U + E8^2 + A2 + <-2>"),
    (5, 5, 1): ("U + E8^2 + H5", "H5 + <-2>"),
    (5, 4, 2): ("U + H5 + E8 + A4", "H5 + A4 + <-2>"),
    (5, 4, 4): ("U(5) + H5 + E8 + A4", "H5 + A4*(5) + <-2>"),
    (5, 3, 1): ("U + H5 + E8", "H5 + E8 + <-2>"),
    (5, 3, 3): ("U + H5 + A4^2", "H5 + A4^2 + <-2>"),
    (5, 2, 2): ("U + H5 + A4", "H5 + A4 + E8 + <-2>"),
    (5, 1, 1): ("U + H5", "H5 + E8^2 + <-2>"),
    (7, 3, 1): ("U^2 + E8 + A6", "U + K7 + <-2>"),
    (7, 3, 3): ("U + U(7) + E8 + A6", "U(7) + K7 + <-2>"),
    (7, 2, 0): ("U^2 + E8", "U + E8 + <-2>"),
    (7, 2, 2): ("U + U(7) + E8", "U(7) + E8 + <-2>"),
    (7, 1, 1): ("U^2 + K7", "U + E8 + A6 + <-2>"),
    (11, 2, 0): ("U^2 + E8^2", "U + <-2>"),
    (11, 2, 2): ("U + U(11) + E8^2", "U(11) + <-2>"),
    (11, 1, 1): ("K11(-1) + E8", "U + A10 + <-2>"),
    (13, 1, 0): ("U^2 + E8", "U + E8 + <-2>"),
    (13, 1, 1): ("U + E8 + H13", "E8 + H13 + <-2>"),
    (17, 1, 1): ("U^2 + E8 + L17", "U + L17 + <-2>"),
    (19, 1, 1): ("K19(-1) + E8^2", "U + K19 + <-2>"),
}

# Realization tags.  NATURAL is computed (`natural_verdict`); FANO marks the
# rows realized by a construction on Fano varieties, which is geometric data.
NATURAL = "natural"
FANO = "fano"
FANO_ROWS = frozenset({(3, 11, 1), (3, 8, 6), (3, 7, 7), (3, 5, 5)})


def natural_verdict(p: int, m: int, a: int, form) -> tuple[bool, str | None]:
    """Whether a natural automorphism, one induced on Sigma^[2] by an order-p
    automorphism of a K3 surface Sigma, can realize the row (p, m, a) whose S
    has the discriminant form `form`; when not, the failing condition, "N2"
    or the existence test's "E1".."E4".

    (N2) m = a mod 2.  On Sigma, topological Lefschetz gives chi = 24 - pm
    and Smith theory h*(F_p) = 24 - (p-2)m - 2a for the fixed locus, which
    is points and smooth curves, so h* - chi = 4·(sum of the genera).
    (N1) S embeds primitively in the K3 lattice Lambda = U^3 + E8^2, as
    L = Lambda + <-2> with H^2(Sigma) = Lambda.  Lambda is unimodular, so
    this holds iff an even T' of signature (3, 19) - (2, rank S - 2) =
    (1, 21 - rank S) with form -q_S exists (Nikulin 1979, Prop. 1.6.1 and
    Thm 1.10.1); the row's T is then T' + <-2>.
    That the two suffice is Artebani, Sarti and Taki's realization of every
    K3 pair that passes them (Math. Z. 268, 2011; cited, not re-derived);
    the tests compare the verdict with the published tables on every
    candidate row.  N2 goes first, as it costs nothing."""
    if (m - a) % 2:
        return False, "N2"
    return fqf.even_lattice_exists_report(1, 21 - (p - 1) * m, form.neg())


def enumerate_triples(p: int) -> list[AdmissibleTriple]:
    """All admissible rows for the prime p, in table order (m desc, a asc)."""
    if p not in SUPPORTED_PRIMES:
        raise UnsupportedPrime(f"unsupported prime {p}")
    rows: list[AdmissibleTriple] = []
    rank_l = classify.AMBIENT_GENUS.rank  # rank S < rank L, as T has t+ = 1
    forms: dict[int, tuple] = {}  # a -> the two p-elementary forms of length a
    for m in range((rank_l - 1) // (p - 1), 0, -1):
        rank_s = (p - 1) * m
        for a in range(0, min(rank_s, rank_l - rank_s, m) + 1):
            if a not in forms:
                forms[a] = (fqf.p_elementary_form(p, a),
                            fqf.p_elementary_form(p, a, nonresidue=True))
            form = next(
                (q for q in forms[a] if fqf.even_lattice_exists_report(2, rank_s - 2, q)[0]), None
            )
            if form is None:
                continue
            report = classify.embed_in_L(classify.LatticeInvariants(2, rank_s - 2, form))
            if not report.embeds:
                continue
            natural, _ = natural_verdict(p, m, a, form)
            if p == 5 and not natural:
                continue
            key = (p, m, a)
            names = LATTICE_NAMES[key]
            realizations = ((FANO,) if key in FANO_ROWS else ()) + ((NATURAL,) if natural else ())
            rows.append(
                AdmissibleTriple(
                    p=p,
                    m=m,
                    a=a,
                    chi=lefschetz_chi(p, m),
                    h_star=h_star(p, m, a),
                    S=names[0],
                    T=names[1],
                    realized="+".join(realizations),
                    s_unique_embedding=report.unique_embedding,
                    embedding_exception=report.exception_flag,
                    t_unique_embedding=report.t_unique_embedding,
                    s_rank=rank_s,
                    t_rank=rank_l - rank_s,
                    moduli_dim=m - 1,
                    natural_only=(p == 5),
                    no_known_realization=not realizations,
                )
            )
    return rows


# -- rendering -----------------------------------------------------------------

def _flags(row: AdmissibleTriple) -> str:
    flags = []
    if row.embedding_exception:
        flags.append("embedding-not-unique")
    if row.no_known_realization:
        flags.append("no-known-realization")
    return ",".join(flags)


def _markdown(p: int) -> str:
    out = [f"## Order {p}", ""]
    if p == 5:
        out.append("*Natural automorphisms only.*")
        out.append("")
    out.append("| p | m | a | chi | h* | S | T | realized | flags |")
    out.append("|--:|--:|--:|----:|---:|---|---|---|---|")
    for r in enumerate_triples(p):
        out.append(
            f"| {r.p} | {r.m} | {r.a} | {r.chi} | {r.h_star} "
            f"| {r.S} | {r.T} | {r.realized} | {_flags(r)} |"
        )
    return "\n".join(out) + "\n"


def render(primes, fmt: str) -> str:
    """The tables of `primes`, in order, as one text: for "md" one section per
    prime, sections joined by a blank line; for "csv" one header over all
    rows; for "json" one list of rows as records.  `json` and `csv` are
    imported only by the format that writes them."""
    if fmt == "md":
        return "\n".join(_markdown(p) for p in primes)
    if fmt not in ("csv", "json"):
        raise InvalidParameter(f"unknown table format {fmt!r}")
    rows = [r for p in primes for r in enumerate_triples(p)]
    if fmt == "json":
        import json

        return json.dumps([r._asdict() for r in rows], indent=2)
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if rows:
        writer.writerow(AdmissibleTriple._fields)
    writer.writerows(rows)
    return buf.getvalue()
