"""Test-only fixed-locus data and oracles.

Fixed loci observed on families of fourfolds, each with the classification
row it must match; the closed forms of the Hilbert-square census when a
genus-g curve is present (an oracle of `fixedlocus.hilb2_census`); the
census as a dict, which `json.dumps` turns into the text of
`Hilb2FixedLocus.as_json`; the census cross-check of a K3 locus against a
row; the trace on degree-4 cohomology; and the local-action patterns by a
scan of every i (an oracle of `fixedlocus.enumerate_local_actions`) with
the line `hklat local-actions` prints for one record.  The library never
uses them.
"""

from typing import NamedTuple

from hklat.errors import InvalidParameter
from hklat.fixedlocus import Hilb2FixedLocus, K3FixedLocus, cross_check_totals, hilb2_census


class FixedLocusFixture(NamedTuple):
    """A directly observed fixed locus on a fourfold: components given as
    ("point", count), ("curve", genus, count) or ("surface", chi, h_star, count);
    expected to match the classification row `triple`."""

    label: str
    components: tuple[tuple, ...]
    triple: tuple[int, int, int]

    def totals(self) -> tuple[int, int]:
        chi = hs = 0
        for comp in self.components:
            kind = comp[0]
            if kind == "point":
                chi += comp[1]
                hs += comp[1]
            elif kind == "curve":
                _, g, count = comp
                chi += count * (2 - 2 * g)
                hs += count * (2 + 2 * g)
            elif kind == "surface":
                _, c, h, count = comp
                chi += count * c
                hs += count * h
            else:
                raise InvalidParameter(f"unknown component kind {kind!r}")
        return chi, hs


# Fixed loci of the four order-3 actions on families of Fano varieties of
# lines in cubic fourfolds, plus the Hilbert-square census of a K3 action
# with five isolated points and two rational curves.
FANO_FIXTURES = (
    FixedLocusFixture(
        label="fano-surface-of-cubic-threefold",
        components=(("surface", 27, 67, 1),),
        triple=(3, 11, 1),
    ),
    FixedLocusFixture(
        label="three-cubic-surfaces-and-27-points",
        components=(("point", 27), ("surface", 9, 9, 3)),
        triple=(3, 5, 5),
    ),
    FixedLocusFixture(
        label="three-elliptic-curves",
        components=(("curve", 1, 3),),
        triple=(3, 8, 6),
    ),
    FixedLocusFixture(
        label="three-points-three-rational-curves",
        components=(("point", 3), ("curve", 0, 3)),
        triple=(3, 7, 7),
    ),
)

HILB2_NATURAL_355 = K3FixedLocus(p=3, k=2, n=(0, 5))


def census_chi_closed_form(g: int, N: int, k: int) -> tuple[int, int]:
    """Closed forms for (chi, h_star) when a genus-g curve is present."""
    # Both halvings are exact: the factors of chi2 differ by 3, and every term
    # of hs2 is even except N^2 + 7N = N(N + 7).
    chi2 = (2 * g - 2 - N - 2 * k) * (2 * g - 5 - N - 2 * k)
    hs2 = N * N + 7 * N + 4 * N * k + 14 * k + 4 * N * g + 10 + 10 * g + 4 * k * k + 8 * k * g + 4 * g * g
    return chi2 // 2, hs2 // 2


def census_as_dict(census: Hilb2FixedLocus) -> dict:
    """The census as a dict in field order, the four surface counts nested
    under "surfaces"."""
    return {
        "isolated_points": census.isolated_points,
        "rational_curves": census.rational_curves,
        "genus_g_curves": census.genus_g_curves,
        "surfaces": {
            "p1_x_p1": census.surfaces_p1_x_p1,
            "p1_x_cg": census.surfaces_p1_x_cg,
            "p2": census.surfaces_p2,
            "hilb2_cg": census.surfaces_hilb2_cg,
        },
        "chi": census.chi,
        "h_star": census.h_star,
    }


def cross_check_against_table(f: K3FixedLocus, p: int, m: int, a: int) -> bool:
    census = hilb2_census(f)
    return cross_check_totals(census.chi, census.h_star, p, m, a)


def h4_trace(m: int, r: int) -> int:
    """Trace of the action on degree-4 cohomology: (m-r)(m-r-1)/2."""
    return (m - r) * (m - r - 1) // 2


def local_actions_by_scan(p: int) -> list[dict]:
    """The local-action records of an odd prime p, family 2 found by scanning
    i = 2..p-1 and keeping the least i of each pair {i, 1 - i} mod p."""
    out = []
    half = (p + 1) // 2
    for a in range(0, 3):
        b = 4 - 2 * a
        if (a + half * b - 2) % p == 0:
            out.append(
                {
                    "family": 1,
                    "eigenvalue_exponents": (0, 1, half),
                    "multiplicities": (a, a, b),
                    "fixed_dim": a,
                }
            )
    seen = set()
    for i in range(2, p):
        if (2 * i - 1) % p == 0:
            continue
        rep = min(i, (1 - i) % p)
        if rep in seen or rep in (0, 1):
            continue
        seen.add(rep)
        for a in range(0, 3):
            b = 2 - a
            out.append(
                {
                    "family": 2,
                    "i": i,
                    "eigenvalue_exponents": (0, 1, i, (1 - i) % p),
                    "multiplicities": (a, a, b, b),
                    "fixed_dim": a,
                }
            )
    return out


def local_action_line(rec: dict) -> str:
    """The line `hklat local-actions` prints for one record, formatted whole."""
    exps = ", ".join(f"z^{e}" if e else "1" for e in rec["eigenvalue_exponents"])
    extra = f" (i = {rec['i']})" if "i" in rec else ""
    return (f"family {rec['family']}{extra}: eigenvalues ({exps}) "
            f"multiplicities {rec['multiplicities']} fixed-dim {rec['fixed_dim']}")
