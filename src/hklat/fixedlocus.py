"""Fixed-locus census on the Hilbert square of a K3 surface.

Given the fixed locus of a prime-order non-symplectic automorphism on a K3
surface (one curve of genus g, k smooth rational curves, N isolated points
with local-type counts n_0..n_{p-2}), the induced automorphism on the Hilbert
square fixes a catalogue of points, curves and surfaces whose Euler
characteristic and total F_p Betti number are accumulated per component.
The census writes its JSON text from one template (`Hilb2FixedLocus.as_json`);
`json` is imported only to read a locus (`k3_fixed_locus_from_json`).
"""

from __future__ import annotations

from typing import NamedTuple

from . import tables
from .errors import InvalidParameter, UnsupportedPrime
from .exact import is_prime


def as_int(x) -> int:
    """Validate one integer of outside input: an int, not a bool, float or str."""
    if type(x) is not int:
        raise InvalidParameter(f"not an integer: {x!r}")
    return x


def _odd_prime(p, bound: int = 19, variety: str = "a K3 surface") -> int:
    """p checked as the order of a non-symplectic automorphism of `variety`:
    an int, at most `bound`, and an odd prime.  The bound is tested first,
    so no larger p is sized or factored.  A K3 surface X has none of prime
    order above 19: p - 1 divides the rank of the transcendental lattice,
    which is at most 21 as X is projective (Nikulin, on finite automorphism
    groups of K3 surfaces; cited only)."""
    p = as_int(p)
    if p > bound:
        raise UnsupportedPrime(f"p = {p} is above {bound}: {variety} has no "
                               "non-symplectic automorphism of larger prime order")
    if p == 2 or not is_prime(p):
        raise InvalidParameter("p must be an odd prime")
    return p


class K3FixedLocus:
    """Fixed locus of an order-p automorphism on a K3 surface.

    n[t] counts isolated points with local rotation type diag(z^(t+1), z^(p-t))
    for a primitive p-th root of unity z; n has length p-1.  p is an odd
    prime at most 19 (`_odd_prime`, UnsupportedPrime above).  Every count is
    an int: a float, bool or str raises InvalidParameter, as does an n that
    is not a sequence.  Immutable.
    """

    __slots__ = ("p", "k", "n", "genus_curve")

    def __init__(self, p: int, k: int, n: tuple[int, ...], genus_curve: int | None = None):
        p, k = _odd_prime(p), as_int(k)
        try:
            n = tuple(map(as_int, n))
        except TypeError as exc:
            raise InvalidParameter(f"n must be a sequence of integers: {exc}") from exc
        genus_curve = None if genus_curve is None else as_int(genus_curve)
        if len(n) != p - 1:
            raise InvalidParameter(f"n must list p-1 = {p - 1} local-type counts")
        if k < 0 or any(x < 0 for x in n):
            raise InvalidParameter("counts must be nonnegative")
        if genus_curve is not None and genus_curve < 0:
            raise InvalidParameter("genus must be nonnegative")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "genus_curve", genus_curve)

    def __setattr__(self, name, value):
        raise AttributeError(f"K3FixedLocus is immutable; cannot set {name!r}")

    def __repr__(self):
        return (f"K3FixedLocus(p={self.p!r}, k={self.k!r}, n={self.n!r}, "
                f"genus_curve={self.genus_curve!r})")

    @property
    def N(self) -> int:
        return sum(self.n)

    @property
    def n_half(self) -> int:
        """Count of points whose local action has two equal eigenvalues."""
        return self.n[(self.p - 1) // 2]


# The census as `json.dumps(..., indent=2)` writes it, with one placeholder
# per field, in field order.
_CENSUS_JSON = """{{
  "isolated_points": {},
  "rational_curves": {},
  "genus_g_curves": {},
  "surfaces": {{
    "p1_x_p1": {},
    "p1_x_cg": {},
    "p2": {},
    "hilb2_cg": {}
  }},
  "chi": {},
  "h_star": {}
}}"""


class Hilb2FixedLocus(NamedTuple):
    """Component inventory of the induced fixed locus on the Hilbert square.

    `as_json` writes the fields in field order as a JSON object, the four
    surface counts nested under "surfaces", as `json.dumps(..., indent=2)`
    would, from one template, so no json encoder runs.
    """

    isolated_points: int
    rational_curves: int
    genus_g_curves: int
    surfaces_p1_x_p1: int
    surfaces_p1_x_cg: int
    surfaces_p2: int
    surfaces_hilb2_cg: int
    chi: int
    h_star: int

    def as_json(self) -> str:
        """The census as JSON text with an indent of 2, no final newline."""
        return _CENSUS_JSON.format(*self)


def hilb2_census(f: K3FixedLocus) -> Hilb2FixedLocus:
    """Componentwise census of the fixed locus on the Hilbert square.

    When no genus-g curve is present, the four components derived from it are
    simply omitted; the remaining contributions are unchanged.
    """
    N, k, nh = f.N, f.k, f.n_half
    g = f.genus_curve

    points = N * (N - 1) // 2 + 2 * (N - nh)
    rational = nh + N * k + k
    p1p1 = k * (k - 1) // 2
    p2 = k

    # points, P^1, P^1 x P^1 and P^2 have only even cohomology: chi = h*
    chi = hs = points + 2 * rational + 4 * p1p1 + 3 * p2

    if g is None:
        return Hilb2FixedLocus(points, rational, 0, p1p1, 0, p2, 0, chi, hs)

    cg_curves = N + 1
    chi += cg_curves * (2 - 2 * g) + k * (4 - 4 * g) + (3 + 2 * g * g - 5 * g)
    hs += cg_curves * (2 + 2 * g) + k * (4 + 4 * g) + (3 + 2 * g * g + 3 * g)
    return Hilb2FixedLocus(points, rational, cg_curves, p1p1, k, p2, 1, chi, hs)


def cross_check_totals(chi: int, hs: int, p: int, m: int, a: int) -> bool:
    """Do fixed-locus totals match the lattice-side predictions for (p, m, a)?"""
    return chi == tables.lefschetz_chi(p, m) and hs == tables.h_star(p, m, a)


# -- local fixed-point analysis ----------------------------------------------------

def enumerate_local_actions(p: int) -> list[dict]:
    """Eigenvalue patterns of the linearized action at a fixed point on a
    symplectic fourfold rescaling the symplectic form by a primitive p-th root
    of unity z.

    Family 1 has eigenvalues (1, z, z^((p+1)/2)) with multiplicities (a, a, b),
    2a + b = 4, constrained by the Pfaffian congruence a + b(p+1)/2 = 2 mod p.
    Family 2 has eigenvalues (1, z, z^i, z^(1-i)) with 2i != 1 mod p and
    multiplicities (a, a, b, b), a + b = 2.  The fixed-component dimension at
    the point equals the multiplicity of eigenvalue 1.

    Family 2 lists one i per unordered pair {i, 1 - i} mod p, the smaller:
    i = 2, ..., (p - 1)/2, since i = (p + 1)/2 is the excluded 2i = 1.  The
    records of one eigenvalue pattern come together and share one exponent
    tuple; they differ only in multiplicities and fixed_dim.

    p is an odd prime at most 23: p - 1 divides the rank of the
    transcendental lattice of the projective fourfold, at most
    b_2 - 1 = 22 (cited only).  A larger p raises UnsupportedPrime
    (`_odd_prime`).
    """
    p = _odd_prime(p, 23, "the fourfold")
    half = (p + 1) // 2
    exps = (0, 1, half)
    out = [
        {"family": 1, "eigenvalue_exponents": exps, "multiplicities": (a, a, 4 - 2 * a),
         "fixed_dim": a}
        for a in range(3)
        if (a + half * (4 - 2 * a) - 2) % p == 0
    ]
    for i in range(2, half):
        exps = (0, 1, i, p + 1 - i)
        out += (
            {"family": 2, "i": i, "eigenvalue_exponents": exps,
             "multiplicities": (a, a, 2 - a, 2 - a), "fixed_dim": a}
            for a in range(3)
        )
    return out


# -- JSON interface -----------------------------------------------------------------

def k3_fixed_locus_from_json(text: str) -> K3FixedLocus:
    """The locus of a JSON object {"p", "k", "n", "genus_curve"}; "n"
    defaults to p - 1 zeros once p is checked, "k" to 0."""
    import json

    try:
        data = json.loads(text)
        p, n = data["p"], data.get("n")
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise InvalidParameter(f"malformed fixed-locus JSON: {exc!r}") from exc
    if n is None:
        n = (0,) * (_odd_prime(p) - 1)
    return K3FixedLocus(p=p, k=data.get("k", 0), n=n, genus_curve=data.get("genus_curve"))
