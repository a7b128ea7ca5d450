"""Order-two theory: 2-elementary lattices, their embeddings into the ambient
lattice, and the two embedding charts.

An even 2-elementary lattice is determined by (signature, length a, delta),
where delta = 0 iff the discriminant form takes only integer values mod 2Z.
For a hyperbolic T of signature (1, r-1) primitively embedded in
L = U^3 + E8^2 + <-2>, the orthogonal S has signature (2, 21-r) and either
length a+1 with delta_S = 1 (case I, always available), or length a-1
(case II, available exactly when some element of A_T has q-value 3/2).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidParameter

CASE_I = "I"
CASE_II = "II"

# The signature of L = U^3 + E8^2 + <-2>, whose one definition is
# `hklat.AMBIENT`; kept here so that the charts need no lattice arithmetic.
AMBIENT_SIGNATURE = (3, 20)


class TwoElemInvariants(NamedTuple):
    """Isometry-class data of an even 2-elementary lattice."""

    s_plus: int
    s_minus: int
    a: int
    delta: int

    @property
    def r(self) -> int:
        return self.s_plus + self.s_minus


class InvolutionEmbeddingClass(NamedTuple):
    """One embedding class of T in L, described by its orthogonal complement."""

    case: str  # CASE_I: l(A_S) = a+1, delta_S = 1;  CASE_II: l(A_S) = a-1
    s_invariants: TwoElemInvariants


def two_elementary_exists(inv: TwoElemInvariants) -> bool:
    """Existence of an even 2-elementary lattice with the given invariants.

    Arithmetic conditions on (s+, s-, a, delta): parity a = rank mod 2; for
    delta = 0 the signature is 0 mod 4 (0 mod 8 at full length a = rank, and
    for a = 0); small lengths restrict the signature to the values realized
    by forms of that length (a = 1: +-1; a = 2, delta = 1: 0, +-2).
    """
    r = inv.r
    sigma = (inv.s_plus - inv.s_minus) % 8
    if inv.s_plus < 0 or inv.s_minus < 0 or inv.a < 0 or inv.a > r:
        return False
    if inv.delta not in (0, 1):
        return False
    if (r - inv.a) % 2:
        return False
    if inv.a == 0:
        return inv.delta == 0 and sigma == 0
    if inv.delta == 0:
        if inv.a % 2:
            return False
        if sigma % 4:
            return False
        if inv.a == r and sigma != 0:
            return False
        return True
    if inv.a == 1:
        return sigma in (1, 7)
    if inv.a == 2:
        return sigma in (0, 2, 6)
    return True


def has_value_three_halves(inv: TwoElemInvariants) -> bool:
    """Whether the discriminant form contains an element of q-value 3/2.

    Invariant criterion: delta must be 1; at lengths 1 and 2 only the classes
    built from a <3/2> block qualify, from length 3 on every delta = 1 class
    does.  The test suite checks it against a scan of the form's values.
    """
    if not two_elementary_exists(inv) or inv.a == 0 or inv.delta == 0:
        return False
    sigma = (inv.s_plus - inv.s_minus) % 8
    if inv.a == 1:
        return sigma == 7
    if inv.a == 2:
        return sigma in (0, 6)
    return True


# Chart adjustment: the published chart 1 carries no delta_T = 0 marker at
# (r, a) = (14, 8) although the arithmetic conditions admit that class.
CHART1_PUBLISHED_EXCLUDES = frozenset({(14, 8, 0)})


def classify_involution_embeddings(t: TwoElemInvariants) -> list[InvolutionEmbeddingClass]:
    """All embedding classes of a hyperbolic 2-elementary T = (1, r-1, a, delta)
    in the ambient lattice, listed by the invariants of the orthogonal S."""
    if t.s_plus != 1:
        raise InvalidParameter("T must be hyperbolic of signature (1, r-1)")
    if not two_elementary_exists(t):
        return []
    l_plus, l_minus = AMBIENT_SIGNATURE
    s_plus, s_minus = l_plus - t.s_plus, l_minus - t.s_minus
    if s_minus < 0:
        return []
    classes = []
    case1 = TwoElemInvariants(s_plus, s_minus, t.a + 1, 1)
    if two_elementary_exists(case1):
        classes.append(InvolutionEmbeddingClass(CASE_I, case1))
    if t.a >= 1 and has_value_three_halves(t):
        for delta_s in (0, 1):
            if t.a - 1 == 0 and delta_s == 1:
                continue
            cand = TwoElemInvariants(s_plus, s_minus, t.a - 1, delta_s)
            if two_elementary_exists(cand):
                classes.append(InvolutionEmbeddingClass(CASE_II, cand))
    return classes


def figure_points(which: int) -> set[tuple[int, int, int]]:
    """The two embedding charts, as sets of (r, a, delta_marker).

    Chart 1 collects (r, a, delta_T) admitting a case-I embedding (l(A_S) =
    a+1); chart 2 collects (r, a, delta_S) over case-II embeddings (l(A_S) =
    a-1; delta_T = 1 throughout).  Computed by sweeping 1 <= r <= 21, then
    adjusted to the published charts (see CHART1_PUBLISHED_EXCLUDES).
    """
    if which not in (1, 2):
        raise InvalidParameter("chart index must be 1 or 2")
    points: set[tuple[int, int, int]] = set()
    for r in range(1, 22):
        for a in range(0, r + 1):
            for delta_t in (0, 1):
                t = TwoElemInvariants(1, r - 1, a, delta_t)
                for cls in classify_involution_embeddings(t):
                    if which == 1 and cls.case == CASE_I:
                        points.add((r, a, delta_t))
                    elif which == 2 and cls.case == CASE_II:
                        points.add((r, a, cls.s_invariants.delta))
    if which == 1:
        points -= CHART1_PUBLISHED_EXCLUDES
    return points


# -- emitters -----------------------------------------------------------------

def figure_points_json(which: int) -> str:
    import json

    key = "delta_t" if which == 1 else "delta_s"
    records = [
        {"r": r, "a": a, key: d}
        for r, a, d in sorted(figure_points(which))
    ]
    return json.dumps({"figure": which, "points": records}, indent=2)


_MARKERS = {
    # (has delta-flag 1, has delta-flag 0)
    1: {(True, False): "•", (False, True): "✶", (True, True): "✪"},
    2: {(True, False): "•", (False, True): "◦", (True, True): "◉"},
}


def figure_points_text(which: int) -> str:
    """Plain-text scatter: r on x, a on y; marker chars follow the charts'
    legend (filled dot for delta = 1, star/open dot for delta = 0, a combined
    glyph where both occur)."""
    pts = figure_points(which)
    by_cell: dict[tuple[int, int], set[int]] = {}
    for r, a, d in pts:
        by_cell.setdefault((r, a), set()).add(d)
    max_a = max((a for _, a in by_cell), default=0)
    lines = []
    for a in range(max_a, -1, -1):
        row = [f"{a:2d} "]
        for r in range(1, 22):
            flags = by_cell.get((r, a))
            if not flags:
                row.append(" . ")
            else:
                row.append(f" {_MARKERS[which][(1 in flags, 0 in flags)]} ")
        lines.append("".join(row))
    lines.append("   " + "".join(f"{r:2d} " for r in range(1, 22)))
    return "\n".join(lines)
